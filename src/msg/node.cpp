#include "msg/node.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "msg/observer.hpp"
#include "support/assert.hpp"

namespace locus {

namespace {

/// Cap on resident-region ids carried by one extended wire request.
constexpr std::size_t kResidentSummaryCap = 32;

/// Converts extracted delta blocks into wire-format update blocks.
std::vector<UpdateBlock> to_update_blocks(std::vector<DeltaArray::Extract> extracts) {
  std::vector<UpdateBlock> blocks;
  blocks.reserve(extracts.size());
  for (DeltaArray::Extract& e : extracts) {
    blocks.push_back(UpdateBlock{e.bbox, std::move(e.values)});
  }
  return blocks;
}

}  // namespace

RouterNode::RouterNode(const Circuit& circuit, const Partition& partition,
                       const MpConfig& config, std::vector<WireId> my_wires,
                       ProcId self, MpShared& shared)
    : circuit_(circuit), partition_(partition), config_(config),
      my_wires_(std::move(my_wires)), self_(self), shared_(shared),
      view_(circuit.channels(), circuit.grids(), config.shard.tile),
      delta_(partition, config.shard.tile),
      view_with_delta_(view_, delta_),
      router_(circuit.channels(), config.router),
      touch_count_(static_cast<std::size_t>(partition.num_regions()), 0),
      interest_bbox_(static_cast<std::size_t>(partition.num_regions())),
      req_rmt_received_(static_cast<std::size_t>(partition.num_regions()), 0),
      segments_changed_(static_cast<std::size_t>(partition.num_regions()), 0),
      granted_to_(static_cast<std::size_t>(partition.num_regions()), false) {
  // The own region is pinned resident up front: it receives every remote
  // delta and must answer absolute requests from wire 0.
  view_.ensure_rect(partition.region(self));
  if (config.assignment_mode != WireAssignmentMode::kStatic &&
      config.dynamic.extended_protocol() && self == 0 &&
      config.dynamic.policy == GrantPolicy::kLocality) {
    affinity_ = std::make_unique<WireAffinityIndex>(circuit, partition);
  }
}

void RouterNode::on_start(NodeApi& api) { static_cast<void>(api); }

TimeBreakdown& RouterNode::breakdown() {
  return shared_.time_breakdown[static_cast<std::size_t>(self_)];
}

bool RouterNode::blocked() const {
  if (config_.schedule.blocking_receiver && pending_responses_ > 0) return true;
  if (config_.assignment_mode == WireAssignmentMode::kStatic || self_ == 0) {
    return false;
  }
  if (config_.dynamic.extended_protocol()) {
    // Extended worker parked while its queue is drained and a grant is in
    // flight.
    return queue_head_ >= wire_queue_.size() && waiting_grant_ && !no_more_;
  }
  // Dynamic-assignment worker parked until its wire grant arrives.
  return waiting_grant_ && granted_wire_ < 0 && !no_more_;
}

void RouterNode::on_packet(NodeApi& api, const Packet& packet) {
  const TimeModel& tm = config_.time;
  // Receive-side software: fixed handling plus per-byte disassembly.
  const SimTime unpack_cost =
      tm.msg_fixed_ns + static_cast<SimTime>(packet.bytes) * tm.unpack_byte_ns;
  api.advance(unpack_cost);
  breakdown().msg_software_ns += unpack_cost;
  KindTraffic& received = shared_.received[msg_kind_index(packet.type)];
  ++received.packets;
  received.bytes += static_cast<std::uint64_t>(packet.bytes);

  switch (packet.type) {
    case kMsgSendLocData:
    case kMsgRspRmtData: {
      const auto& update = packet.payload_as<RegionUpdatePayload>();
      LOCUS_ASSERT(update.absolute);
      // Replace our view of the sender's region with its absolute data
      // (paper §4.3.2: "receiving processors replace their view"). A
      // batched packet replaces each tight block instead of the whole box.
      if (!update.blocks.empty()) {
        for (const UpdateBlock& block : update.blocks) {
          view_.write_rect(block.bbox, block.values);
        }
      } else {
        view_.write_rect(update.bbox, update.values);
      }
      if (packet.type == kMsgRspRmtData) {
        // A duplicated response (fault injection) must not drive the count
        // negative; the extra copy is just a redundant view refresh.
        if (pending_responses_ > 0) --pending_responses_;
        ++shared_.responses_received;
      }
      break;
    }
    case kMsgSendRmtData: {
      const auto& update = packet.payload_as<RegionUpdatePayload>();
      LOCUS_ASSERT(!update.absolute);
      LOCUS_ASSERT_MSG(update.region == self_,
                       "delta updates are addressed to the region owner");
      if (!update.blocks.empty()) {
        for (const UpdateBlock& block : update.blocks) {
          apply_delta_block(block.bbox, block.values);
        }
      } else {
        apply_delta_block(update.bbox, update.values);
      }
      break;
    }
    case kMsgReqRmtData: {
      const auto& request = packet.payload_as<RequestPayload>();
      LOCUS_ASSERT(request.region == self_);
      // ReqLocData trigger: a remote routing often in our region probably
      // has deltas we want (paper §4.3.3).
      if (config_.schedule.req_loc_requests > 0) {
        std::int32_t& count = req_rmt_received_[static_cast<std::size_t>(packet.src)];
        if (++count >= config_.schedule.req_loc_requests) {
          count = 0;
          auto [req, req_data] = make_payload<RequestPayload>();
          req_data->region = self_;
          req_data->bbox = partition_.region(self_);
          api.advance(config_.time.msg_fixed_ns);
          breakdown().msg_software_ns += config_.time.msg_fixed_ns;
          api.send(packet.src, kMsgReqLocData, request_packet_bytes(), std::move(req));
          note_sent(kMsgReqLocData, request_packet_bytes());
          breakdown().network_copy_ns += config_.time.process_time_ns;
          ++shared_.requests_sent;
        }
      }
      // Always respond (a blocking requester is waiting): absolute values
      // inside the requested window of our region.
      Rect window = Rect::intersection(
          request.bbox.is_empty() ? partition_.region(self_) : request.bbox,
          partition_.region(self_));
      LOCUS_ASSERT(!window.is_empty());
      std::vector<std::int32_t> values;
      view_.read_rect(window, values);
      send_data_update(api, packet.src, kMsgRspRmtData, self_, window,
                       /*absolute=*/true, std::move(values));
      break;
    }
    case kMsgReqLocData: {
      const auto& request = packet.payload_as<RequestPayload>();
      LOCUS_ASSERT(request.region != self_);
      // The owner of `request.region` wants our pending deltas for it.
      if (config_.shard.batch_updates) {
        if (auto blocks =
                delta_.extract_region_blocks(request.region, config_.shard.tile)) {
          api.advance(delta_.last_scan_cells() * config_.time.scan_cell_ns);
          breakdown().msg_software_ns +=
              delta_.last_scan_cells() * config_.time.scan_cell_ns;
          send_batched_update(api, packet.src, kMsgSendRmtData, request.region,
                              /*absolute=*/false,
                              to_update_blocks(std::move(*blocks)));
          break;
        }
        ++shared_.updates_suppressed;
        break;
      }
      if (auto extract = delta_.extract_region(request.region)) {
        api.advance(delta_.last_scan_cells() * config_.time.scan_cell_ns);
        breakdown().msg_software_ns += delta_.last_scan_cells() * config_.time.scan_cell_ns;
        send_data_update(api, packet.src, kMsgSendRmtData, request.region,
                         extract->bbox, /*absolute=*/false,
                         std::move(extract->values));
      } else {
        ++shared_.updates_suppressed;
      }
      break;
    }
    case kMsgWireRequest: {
      LOCUS_ASSERT_MSG(self_ == 0, "wire requests go to the queue owner");
      if (config_.dynamic.extended_protocol()) {
        const auto& request = packet.payload_as<WireRequestPayload>();
        outstanding_wires_ -= request.completed;
        LOCUS_ASSERT(outstanding_wires_ >= 0);
        pending_ext_.push_back(PendingRequest{packet.src, request.resident});
        drain_pending_grants_ext(api);
        break;
      }
      note_request_from(packet.src);
      pending_requests_.push_back(packet.src);
      drain_pending_grants(api);
      break;
    }
    case kMsgWireGrant: {
      if (config_.dynamic.extended_protocol()) {
        const auto& grant = packet.payload_as<WireListPayload>();
        waiting_grant_ = false;
        if (grant.wires.empty()) {
          no_more_ = true;
        } else {
          wire_queue_.insert(wire_queue_.end(), grant.wires.begin(),
                             grant.wires.end());
          granted_iteration_ = grant.iteration;
        }
        break;
      }
      const auto& grant = packet.payload_as<GrantPayload>();
      waiting_grant_ = false;
      if (grant.wire < 0) {
        no_more_ = true;
      } else {
        granted_wire_ = grant.wire;
        granted_iteration_ = grant.iteration;
      }
      break;
    }
    case kMsgAck:
      // Transport control traffic terminates in the transport layer; an ack
      // reaching the application would mean the network misrouted it.
      LOCUS_UNREACHABLE("transport acks never reach the application");
    default:
      LOCUS_UNREACHABLE("unknown packet type");
  }
}

bool RouterNode::on_step(NodeApi& api) {
  if (config_.assignment_mode != WireAssignmentMode::kStatic) {
    return dynamic_step(api);
  }
  if (cursor_ >= my_wires_.size()) {
    ++iteration_;
    if (iteration_ >= config_.iterations || my_wires_.empty()) {
      return false;
    }
    cursor_ = 0;
    lookahead_cursor_ = 0;
    return true;  // iteration bookkeeping consumed this step
  }

  if (config_.schedule.receiver_enabled()) {
    advance_lookahead(api);
  }
  route_one_wire(api);
  fire_sender_updates(api);
  return true;
}

void RouterNode::advance_lookahead(NodeApi& api) {
  const UpdateSchedule& sched = config_.schedule;
  const std::size_t target =
      std::min(my_wires_.size(),
               cursor_ + static_cast<std::size_t>(sched.request_lookahead));
  while (lookahead_cursor_ < target) {
    const Wire& wire = circuit_.wire(my_wires_[lookahead_cursor_++]);
    const Rect wire_box = wire.pin_bbox();
    for (ProcId region : partition_.regions_overlapping(wire_box)) {
      if (region == self_) continue;
      auto r = static_cast<std::size_t>(region);
      interest_bbox_[r].expand(
          Rect::intersection(wire_box, partition_.region(region)));
      if (++touch_count_[r] >= sched.req_rmt_touches) {
        touch_count_[r] = 0;
        auto [req, req_data] = make_payload<RequestPayload>();
        req_data->region = region;
        req_data->bbox = interest_bbox_[r];
        interest_bbox_[r] = Rect::empty();
        api.advance(config_.time.msg_fixed_ns);
        breakdown().msg_software_ns += config_.time.msg_fixed_ns;
        api.send(region, kMsgReqRmtData, request_packet_bytes(), std::move(req));
        note_sent(kMsgReqRmtData, request_packet_bytes());
        breakdown().network_copy_ns += config_.time.process_time_ns;
        ++shared_.requests_sent;
        ++pending_responses_;
      }
    }
  }
}

void RouterNode::route_one_wire(NodeApi& api) {
  route_wire_id(api, my_wires_[cursor_++], iteration_, /*charge_now=*/true);
}

SimTime RouterNode::route_wire_id(NodeApi& api, WireId wire_id,
                                  std::int32_t iteration, bool charge_now) {
  const TimeModel& tm = config_.time;
  const Wire& wire = circuit_.wire(wire_id);
  WireRoute& slot = shared_.final_routes[static_cast<std::size_t>(wire_id)];

  RouteWorkStats& work = shared_.work[static_cast<std::size_t>(self_)];
  SimTime cost = 0;
  if (slot.routed()) {
    WireRouter::rip_up(slot, view_with_delta_);
    WireRouter::rip_up(slot, shared_.truth);
    cost += static_cast<SimTime>(slot.cell_count()) * tm.commit_ns;
    note_route_segments(slot);
    ++work.ripups;
  }

  const RouteWorkStats before = work;
  slot = router_.route_wire(wire, view_with_delta_, work);
  cost += tm.routing_time_ns(work.probes - before.probes,
                             work.cells_committed - before.cells_committed, 1);
  note_route_segments(slot);

  if (charge_now) {
    if (shared_.route_spans) {
      // The span covers the rip-up + re-route compute about to be charged.
      shared_.route_spans.span(self_, api.now(), cost, wire_id, iteration);
    }
    api.advance(cost);
    breakdown().routing_ns += cost;
  }

  // Price the chosen path against the global oracle *before* committing it
  // there (measurement only — see MpShared::truth).
  if (iteration + 1 == config_.iterations) {
    shared_.occupancy[static_cast<std::size_t>(self_)] +=
        price_runs(shared_.truth, slot.runs);
  }
  add_runs(shared_.truth, slot.runs, +1);
  if (config_.observer != nullptr) {
    config_.observer->on_wire_routed(self_, wire_id, iteration);
  }
  return cost;
}

// --- dynamic wire assignment (paper §4.2's two dynamic schemes) ---

WireId RouterNode::take_next_wire(std::int32_t* iteration) {
  if (dyn_next_wire_ >= circuit_.num_wires()) {
    if (dyn_iteration_ + 1 >= config_.iterations) {
      *iteration = dyn_iteration_;
      return kGrantDone;
    }
    // The next iteration only starts once every granted wire has been
    // routed (the grantee's next request confirms it); granting across the
    // boundary would let two processors hold the same wire's route slot.
    if (outstanding_grants_ > 0) {
      *iteration = dyn_iteration_;
      return kGrantWait;
    }
    ++dyn_iteration_;
    dyn_next_wire_ = 0;
  }
  *iteration = dyn_iteration_;
  return dyn_next_wire_++;
}

void RouterNode::note_request_from(ProcId src) {
  auto s = static_cast<std::size_t>(src);
  if (granted_to_[s]) {
    granted_to_[s] = false;
    --outstanding_grants_;
    LOCUS_ASSERT(outstanding_grants_ >= 0);
  }
}

void RouterNode::send_grant(NodeApi& api, ProcId dst, WireId wire,
                            std::int32_t iteration) {
  auto [grant, grant_data] = make_payload<GrantPayload>();
  grant_data->wire = wire;
  grant_data->iteration = iteration;
  api.advance(config_.time.msg_fixed_ns);
  breakdown().msg_software_ns += config_.time.msg_fixed_ns;
  api.send(dst, kMsgWireGrant, grant_packet_bytes(), std::move(grant));
  note_sent(kMsgWireGrant, grant_packet_bytes());
  breakdown().network_copy_ns += config_.time.process_time_ns;
  if (wire >= 0) {
    granted_to_[static_cast<std::size_t>(dst)] = true;
    ++outstanding_grants_;
  }
}

void RouterNode::drain_pending_grants(NodeApi& api) {
  while (!pending_requests_.empty()) {
    std::int32_t iteration = 0;
    WireId wire = take_next_wire(&iteration);
    if (wire == kGrantWait) return;  // rollover pending; keep them queued
    ProcId dst = pending_requests_.front();
    pending_requests_.erase(pending_requests_.begin());
    send_grant(api, dst, wire, iteration);
  }
}

void RouterNode::request_wire(NodeApi& api) {
  waiting_grant_ = true;
  api.advance(config_.time.msg_fixed_ns);
  breakdown().msg_software_ns += config_.time.msg_fixed_ns;
  api.send(0, kMsgWireRequest, request_packet_bytes(), nullptr);
  note_sent(kMsgWireRequest, request_packet_bytes());
  breakdown().network_copy_ns += config_.time.process_time_ns;
  ++shared_.requests_sent;
}

bool RouterNode::dynamic_step(NodeApi& api) {
  if (config_.dynamic.extended_protocol()) {
    return self_ == 0 ? master_step_ext(api) : worker_step_ext(api);
  }
  if (self_ == 0) {
    // Queue owner: continue a sliced wire first (requests were serviced by
    // on_packet between slices — the "interrupt" model).
    if (slice_remaining_ > 0) {
      const SimTime slice = std::min(slice_remaining_, config_.interrupt_slice_ns);
      api.advance(slice);
      breakdown().routing_ns += slice;
      slice_remaining_ -= slice;
      if (slice_remaining_ == 0) fire_sender_updates(api);
      return true;
    }
    std::int32_t iteration = 0;
    const WireId wire = take_next_wire(&iteration);
    if (wire == kGrantDone || wire == kGrantWait) {
      // Nothing to route now; arriving requests will wake us.
      return false;
    }
    const SimTime cost = route_wire_id(api, wire, iteration, /*charge_now=*/false);
    if (config_.assignment_mode == WireAssignmentMode::kDynamicInterrupt) {
      slice_remaining_ = cost;
      const SimTime slice = std::min(slice_remaining_, config_.interrupt_slice_ns);
      api.advance(slice);
      breakdown().routing_ns += slice;
      slice_remaining_ -= slice;
      if (slice_remaining_ == 0) fire_sender_updates(api);
    } else {
      api.advance(cost);
      breakdown().routing_ns += cost;
      fire_sender_updates(api);
    }
    return true;
  }

  // Worker: request, wait (blocked()), route, repeat.
  if (no_more_) return false;
  if (granted_wire_ < 0) {
    if (!waiting_grant_) request_wire(api);
    return true;  // the engine parks us via blocked() until the grant lands
  }
  const WireId wire = granted_wire_;
  const std::int32_t iteration = granted_iteration_;
  granted_wire_ = -1;
  waiting_grant_ = false;
  route_wire_id(api, wire, iteration, /*charge_now=*/true);
  fire_sender_updates(api);
  request_wire(api);
  return true;
}

// --- extended dynamic protocol: locality grants and batching ---

std::span<const ProcId> RouterNode::resident_summary() {
  if (config_.dynamic.policy != GrantPolicy::kLocality) return {};
  // Tiles are never released mid-run, so the resident cell count is a
  // monotone key: unchanged count means an unchanged tile set.
  const std::int64_t cells = view_.resident_cells();
  if (cells == resident_snapshot_cells_) return resident_summary_;
  resident_snapshot_cells_ = cells;
  resident_summary_.clear();
  for (ProcId r = 0; r < partition_.num_regions(); ++r) {
    if (view_.any_resident_in(partition_.region(r))) {
      resident_summary_.push_back(r);
    }
  }
  std::stable_sort(resident_summary_.begin(), resident_summary_.end(),
                   [&](ProcId a, ProcId b) {
                     const std::int32_t da = partition_.hop_distance(self_, a);
                     const std::int32_t db = partition_.hop_distance(self_, b);
                     if (da != db) return da < db;
                     return a < b;
                   });
  if (resident_summary_.size() > kResidentSummaryCap) {
    resident_summary_.resize(kResidentSummaryCap);
  }
  return resident_summary_;
}

RouterNode::TakeStatus RouterNode::take_wires_ext(
    ProcId home, std::span<const ProcId> resident, std::int32_t count,
    std::int32_t* iteration, std::vector<WireId>* out) {
  const bool locality = config_.dynamic.policy == GrantPolicy::kLocality;
  const auto exhausted = [&] {
    return locality ? affinity_->remaining() == 0
                    : dyn_next_wire_ >= circuit_.num_wires();
  };
  while (static_cast<std::int32_t>(out->size()) < count) {
    if (exhausted()) {
      if (!out->empty()) break;  // partial batch; never straddle iterations
      if (dyn_iteration_ + 1 >= config_.iterations) {
        *iteration = dyn_iteration_;
        return TakeStatus::kDone;
      }
      // Same gate as the legacy protocol: the next iteration starts only
      // once every granted wire's completion has been reported, so no two
      // processors can hold one wire's route slot.
      if (outstanding_wires_ > 0) {
        *iteration = dyn_iteration_;
        return TakeStatus::kWait;
      }
      ++dyn_iteration_;
      if (locality) {
        affinity_->reset();
      } else {
        dyn_next_wire_ = 0;
      }
      // The fresh iteration rearms every bucket, so radius-deferred
      // requesters become serviceable again.
      for (PendingRequest& d : deferred_ext_) {
        pending_ext_.push_back(std::move(d));
      }
      deferred_ext_.clear();
      continue;
    }
    if (locality) {
      WireAffinityIndex::Tier tier = WireAffinityIndex::Tier::kAny;
      // The batch budget is denominated in routing cost, not wire count:
      // `count` mean-cost wires' worth per grant, up to 4x that many when
      // the donor bucket's cheap end makes wires nearly free. One grant
      // then carries a bounded slice of TIME — a single chip-spanner or a
      // fistful of short wires — so large batches cannot serialize the
      // expensive tail on one processor.
      const std::int32_t want = count <= 1 ? 1 : count * 4;
      const std::int64_t budget =
          count <= 1 ? 0 : count * affinity_->mean_wire_cost();
      const std::int32_t got =
          affinity_->take_batch(home, resident, want, budget,
                                config_.dynamic.locality_radius, out, &tier);
      if (got == 0) {
        // Wires remain, but none homed inside the requester's roam radius.
        *iteration = dyn_iteration_;
        return TakeStatus::kDefer;
      }
      if (tier == WireAffinityIndex::Tier::kResident) {
        shared_.affinity_grants += got;
      }
      // One donor bucket per grant: a short batch is preferable to
      // spilling the requester's footprint into a second region.
      break;
    }
    out->push_back(dyn_next_wire_++);
  }
  *iteration = dyn_iteration_;
  return TakeStatus::kOk;
}

void RouterNode::send_grant_ext(NodeApi& api, ProcId dst,
                                std::vector<WireId> wires,
                                std::int32_t iteration) {
  const auto count = static_cast<std::int32_t>(wires.size());
  // Single-wire (and no-more) grants keep the legacy 8-byte payload; only
  // real batches pay the list form.
  const std::int32_t bytes =
      count <= 1 ? grant_packet_bytes() : batch_grant_packet_bytes(count);
  auto [grant, grant_data] = make_payload<WireListPayload>();
  grant_data->iteration = iteration;
  grant_data->wires = std::move(wires);
  api.advance(config_.time.msg_fixed_ns);
  breakdown().msg_software_ns += config_.time.msg_fixed_ns;
  api.send(dst, kMsgWireGrant, bytes, std::move(grant));
  note_sent(kMsgWireGrant, bytes);
  breakdown().network_copy_ns += config_.time.process_time_ns;
  outstanding_wires_ += count;
  ++shared_.grants_issued;
  shared_.grant_wires += count;
}

void RouterNode::drain_pending_grants_ext(NodeApi& api) {
  while (!pending_ext_.empty()) {
    // By value: the rollover inside take_wires_ext re-queues deferred
    // requests into pending_ext_, which may reallocate it.
    PendingRequest head = std::move(pending_ext_.front());
    pending_ext_.erase(pending_ext_.begin());
    std::int32_t iteration = 0;
    std::vector<WireId> wires;
    const TakeStatus status =
        take_wires_ext(head.src, head.resident, config_.dynamic.grant_batch,
                       &iteration, &wires);
    if (status == TakeStatus::kWait) {
      // Rollover gated on outstanding completions; keep the queue intact.
      pending_ext_.insert(pending_ext_.begin(), std::move(head));
      return;
    }
    if (status == TakeStatus::kDefer) {
      deferred_ext_.push_back(std::move(head));
      continue;
    }
    if (status == TakeStatus::kDone) {
      // Run exhausted: radius-deferred requesters get the same final
      // no-more grant as everyone else.
      for (PendingRequest& d : deferred_ext_) {
        pending_ext_.push_back(std::move(d));
      }
      deferred_ext_.clear();
    }
    send_grant_ext(api, head.src, std::move(wires), iteration);
  }
}

void RouterNode::request_wire_ext(NodeApi& api) {
  waiting_grant_ = true;
  auto [request, request_data] = make_payload<WireRequestPayload>();
  request_data->completed = completed_unreported_;
  completed_unreported_ = 0;
  const std::span<const ProcId> resident = resident_summary();
  request_data->resident.assign(resident.begin(), resident.end());
  const std::int32_t bytes =
      wire_request_packet_bytes(static_cast<std::int32_t>(resident.size()));
  api.advance(config_.time.msg_fixed_ns);
  breakdown().msg_software_ns += config_.time.msg_fixed_ns;
  api.send(0, kMsgWireRequest, bytes, std::move(request));
  note_sent(kMsgWireRequest, bytes);
  breakdown().network_copy_ns += config_.time.process_time_ns;
  ++shared_.requests_sent;
}

bool RouterNode::master_step_ext(NodeApi& api) {
  // Same slicing structure as the legacy master: requests are serviced by
  // on_packet between slices (the "interrupt" model).
  if (slice_remaining_ > 0) {
    const SimTime slice = std::min(slice_remaining_, config_.interrupt_slice_ns);
    api.advance(slice);
    breakdown().routing_ns += slice;
    slice_remaining_ -= slice;
    if (slice_remaining_ == 0) fire_sender_updates(api);
    return true;
  }
  std::int32_t iteration = 0;
  std::vector<WireId> mine;
  const TakeStatus status =
      take_wires_ext(0, resident_summary(), 1, &iteration, &mine);
  if (status != TakeStatus::kOk) {
    return false;  // nothing to route now; arriving requests will wake us
  }
  LOCUS_ASSERT(mine.size() == 1);
  const SimTime cost =
      route_wire_id(api, mine.front(), iteration, /*charge_now=*/false);
  if (config_.assignment_mode == WireAssignmentMode::kDynamicInterrupt) {
    slice_remaining_ = cost;
    const SimTime slice = std::min(slice_remaining_, config_.interrupt_slice_ns);
    api.advance(slice);
    breakdown().routing_ns += slice;
    slice_remaining_ -= slice;
    if (slice_remaining_ == 0) fire_sender_updates(api);
  } else {
    api.advance(cost);
    breakdown().routing_ns += cost;
    fire_sender_updates(api);
  }
  return true;
}

bool RouterNode::worker_step_ext(NodeApi& api) {
  if (queue_head_ < wire_queue_.size()) {
    const WireId wire = wire_queue_[queue_head_++];
    if (queue_head_ >= wire_queue_.size()) {
      wire_queue_.clear();
      queue_head_ = 0;
    }
    route_wire_id(api, wire, granted_iteration_, /*charge_now=*/true);
    ++completed_unreported_;
    fire_sender_updates(api);
    return true;
  }
  if (no_more_) return false;
  if (waiting_grant_) {
    return true;  // the engine parks us via blocked() until a reply lands
  }
  request_wire_ext(api);
  return true;
}

void RouterNode::fire_sender_updates(NodeApi& api) {
  const UpdateSchedule& sched = config_.schedule;
  const TimeModel& tm = config_.time;

  if (sched.send_rmt_period > 0 && ++wires_since_send_rmt_ >= sched.send_rmt_period) {
    wires_since_send_rmt_ = 0;
    for (ProcId region = 0; region < partition_.num_regions(); ++region) {
      if (region == self_) continue;
      if (!delta_.region_dirty(region)) continue;
      if (config_.shard.batch_updates) {
        auto blocks = delta_.extract_region_blocks(region, config_.shard.tile);
        LOCUS_ASSERT(blocks.has_value());
        api.advance(delta_.last_scan_cells() * tm.scan_cell_ns);
        breakdown().msg_software_ns += delta_.last_scan_cells() * tm.scan_cell_ns;
        send_batched_update(api, region, kMsgSendRmtData, region,
                            /*absolute=*/false, to_update_blocks(std::move(*blocks)));
        continue;
      }
      auto extract = delta_.extract_region(region);
      LOCUS_ASSERT(extract.has_value());
      api.advance(delta_.last_scan_cells() * tm.scan_cell_ns);
      breakdown().msg_software_ns += delta_.last_scan_cells() * tm.scan_cell_ns;
      send_data_update(api, region, kMsgSendRmtData, region, extract->bbox,
                       /*absolute=*/false, std::move(extract->values));
    }
  }

  if (sched.send_loc_period > 0 && ++wires_since_send_loc_ >= sched.send_loc_period) {
    wires_since_send_loc_ = 0;
    if (config_.shard.batch_updates) {
      if (auto blocks = delta_.extract_region_blocks(self_, config_.shard.tile)) {
        api.advance(delta_.last_scan_cells() * tm.scan_cell_ns);
        breakdown().msg_software_ns += delta_.last_scan_cells() * tm.scan_cell_ns;
        // The delta values only located the changes; each block carries
        // absolute data from the view.
        std::vector<UpdateBlock> update_blocks = to_update_blocks(std::move(*blocks));
        for (UpdateBlock& block : update_blocks) {
          view_.read_rect(block.bbox, block.values);
        }
        for (ProcId neighbor : partition_.neighbors(self_)) {
          send_batched_update(api, neighbor, kMsgSendLocData, self_,
                              /*absolute=*/true, update_blocks);
        }
        segments_changed_[static_cast<std::size_t>(self_)] = 0;
      } else {
        ++shared_.updates_suppressed;
      }
      return;
    }
    if (auto extract = delta_.extract_region(self_)) {
      api.advance(delta_.last_scan_cells() * tm.scan_cell_ns);
      breakdown().msg_software_ns += delta_.last_scan_cells() * tm.scan_cell_ns;
      // Absolute data comes from the view; the extracted delta values only
      // located the changes.
      std::vector<std::int32_t> values;
      view_.read_rect(extract->bbox, values);
      // Optimization from §4.3.2: absolute broadcasts go to the four mesh
      // neighbors only.
      for (ProcId neighbor : partition_.neighbors(self_)) {
        send_data_update(api, neighbor, kMsgSendLocData, self_, extract->bbox,
                         /*absolute=*/true, values);
      }
      segments_changed_[static_cast<std::size_t>(self_)] = 0;
    } else {
      ++shared_.updates_suppressed;
    }
  }
}

void RouterNode::send_data_update(NodeApi& api, ProcId dst, std::int32_t type,
                                  ProcId region, const Rect& bbox, bool absolute,
                                  std::vector<std::int32_t> values) {
  const TimeModel& tm = config_.time;
  auto r = static_cast<std::size_t>(region);
  const std::int32_t bytes = update_packet_bytes(
      config_.packet_structure, bbox, absolute, segments_changed_[r],
      partition_.region(region).area());
  if (config_.packet_structure == PacketStructure::kWireBased &&
      type != kMsgSendLocData) {
    segments_changed_[r] = 0;
  }
  if (type == kMsgSendRmtData && config_.observer != nullptr) {
    config_.observer->on_delta_sent(self_, region, bbox, values);
  }
  auto [payload, payload_data] = make_payload<RegionUpdatePayload>();
  payload_data->region = region;
  payload_data->bbox = bbox;
  payload_data->absolute = absolute;
  payload_data->values = std::move(values);
  // Assembly cost: fixed software overhead plus per-byte packing.
  const SimTime pack_cost = tm.msg_fixed_ns + static_cast<SimTime>(bytes) * tm.pack_byte_ns;
  api.advance(pack_cost);
  breakdown().msg_software_ns += pack_cost;
  api.send(dst, type, bytes, std::move(payload));
  note_sent(type, bytes);
  breakdown().network_copy_ns += tm.process_time_ns;
}

void RouterNode::send_batched_update(NodeApi& api, ProcId dst, std::int32_t type,
                                     ProcId region, bool absolute,
                                     std::vector<UpdateBlock> blocks) {
  LOCUS_ASSERT(!blocks.empty());
  LOCUS_ASSERT_MSG(config_.packet_structure == PacketStructure::kBoundingBox,
                   "region batching tightens the bounding-box structure only");
  const TimeModel& tm = config_.time;
  Rect bbox;
  for (const UpdateBlock& block : blocks) bbox.expand(block.bbox);
  const std::int32_t bytes = batched_update_packet_bytes(blocks, absolute);
  if (type == kMsgSendRmtData && config_.observer != nullptr) {
    // One ledger event per block: applies fire per block on the receiver, so
    // sent/applied keys must match block-for-block.
    for (const UpdateBlock& block : blocks) {
      config_.observer->on_delta_sent(self_, region, block.bbox, block.values);
    }
  }
  auto [payload, payload_data] = make_payload<RegionUpdatePayload>();
  payload_data->region = region;
  payload_data->bbox = bbox;
  payload_data->absolute = absolute;
  payload_data->blocks = std::move(blocks);
  const SimTime pack_cost = tm.msg_fixed_ns + static_cast<SimTime>(bytes) * tm.pack_byte_ns;
  api.advance(pack_cost);
  breakdown().msg_software_ns += pack_cost;
  api.send(dst, type, bytes, std::move(payload));
  note_sent(type, bytes);
  breakdown().network_copy_ns += tm.process_time_ns;
}

void RouterNode::apply_delta_block(const Rect& bbox,
                                   std::span<const std::int32_t> values) {
  view_.add_rect(bbox, values);
  if (config_.observer != nullptr) {
    config_.observer->on_delta_applied(self_, bbox, values);
  }
  // These changes are now part of our own region's state and must reach
  // the neighbors in the next SendLocData: mark the own-region delta
  // bounding box (values there are never sent; absolute data is).
  const auto width = static_cast<std::size_t>(bbox.width());
  for (std::int32_t c = bbox.channel_lo; c <= bbox.channel_hi; ++c) {
    const auto row = static_cast<std::size_t>(c - bbox.channel_lo);
    delta_.add_row(c, bbox.x_lo, values.subspan(row * width, width));
  }
}

void RouterNode::note_route_segments(const WireRoute& route) {
  std::int64_t segments = 0;
  for (const Route& connection : route.connections) {
    segments += static_cast<std::int64_t>(connection.segments().size());
  }
  for (ProcId region : partition_.regions_overlapping(route.bbox())) {
    segments_changed_[static_cast<std::size_t>(region)] += segments;
  }
}

}  // namespace locus
