#include "msg/node.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "msg/observer.hpp"
#include "route/cost_model.hpp"
#include "support/assert.hpp"

namespace locus {

namespace {

/// Cap on resident-region ids carried by one extended wire request.
constexpr std::size_t kResidentSummaryCap = 32;

std::shared_ptr<const RegionUpdatePayload> make_update(ProcId region, bool absolute,
                                                       std::vector<UpdateBlock> blocks) {
  auto update = std::make_shared<RegionUpdatePayload>();
  update->region = region;
  update->absolute = absolute;
  update->blocks = std::move(blocks);
  return update;
}

}  // namespace

RouterNode::RouterNode(const Circuit& circuit, const Partition& partition,
                       const MpConfig& config, std::vector<WireId> my_wires,
                       ProcId self, MpShared& shared)
    : circuit_(circuit), partition_(partition), config_(config),
      my_wires_(std::move(my_wires)), self_(self), shared_(shared),
      view_(circuit.channels(), circuit.grids(), config.shard.tile),
      delta_(partition, config.shard.tile),
      update_dims_(config.shard.batch_updates ? config.shard.tile : delta_.whole_grid()),
      view_with_delta_(view_, delta_),
      router_(circuit.channels(), RouterParams{}),
      touch_count_(static_cast<std::size_t>(partition.num_regions()), 0),
      interest_bbox_(static_cast<std::size_t>(partition.num_regions())),
      req_rmt_received_(static_cast<std::size_t>(partition.num_regions()), 0),
      segments_changed_(static_cast<std::size_t>(partition.num_regions()), 0) {
  // The own region is pinned resident up front: it receives every remote
  // delta and must answer absolute requests from wire 0.
  view_.ensure_rect(partition.region(self));
  if (config.assignment_mode != WireAssignmentMode::kStatic && self == 0 &&
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
  // Dynamic worker parked while its queue is drained and a grant is in
  // flight.
  return queue_head_ >= wire_queue_.size() && waiting_grant_ && !no_more_;
}

void RouterNode::on_packet(NodeApi& api, const Packet& packet) {
  // Receive-side software: fixed handling plus per-byte disassembly.
  const SimTime unpack_cost =
      TimeModel::kMsgFixedNs + static_cast<SimTime>(packet.bytes) * TimeModel::kUnpackByteNs;
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
      // Replace our view of each block with the sender's absolute data
      // (paper §4.3.2: "receiving processors replace their view").
      for (const UpdateBlock& block : update.blocks) {
        view_.write_rect(block.bbox, block.values);
      }
      // A duplicated response (fault injection) must not drive the count
      // negative; the extra copy is just a redundant view refresh.
      if (packet.type == kMsgRspRmtData && pending_responses_ > 0) --pending_responses_;
      break;
    }
    case kMsgSendRmtData: {
      const auto& update = packet.payload_as<RegionUpdatePayload>();
      LOCUS_ASSERT(!update.absolute);
      LOCUS_ASSERT_MSG(update.region == self_,
                       "delta updates are addressed to the region owner");
      for (const UpdateBlock& block : update.blocks) {
        view_.add_rect(block.bbox, block.values);
        if (config_.observer != nullptr) {
          config_.observer->on_delta_applied(self_, block.bbox, block.values);
        }
        // These changes are now part of our own region's state and must
        // reach the neighbors in the next SendLocData: mark the own-region
        // delta bounding box (values there are never sent; absolute data is).
        const std::span<const std::int32_t> values = block.values;
        const auto width = static_cast<std::size_t>(block.bbox.width());
        for (std::int32_t c = block.bbox.channel_lo; c <= block.bbox.channel_hi; ++c) {
          const auto row = static_cast<std::size_t>(c - block.bbox.channel_lo);
          delta_.add_row(c, block.bbox.x_lo, values.subspan(row * width, width));
        }
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
          send_request(api, packet.src, kMsgReqLocData, self_, partition_.region(self_));
        }
      }
      // Always respond (a blocking requester is waiting): absolute values
      // inside the requested window of our region.
      std::vector<UpdateBlock> blocks(1);
      UpdateBlock& window = blocks.front();
      window.bbox = Rect::intersection(
          request.bbox.is_empty() ? partition_.region(self_) : request.bbox,
          partition_.region(self_));
      LOCUS_ASSERT(!window.bbox.is_empty());
      view_.read_rect(window.bbox, window.values);
      send_update(api, packet.src, kMsgRspRmtData,
                  make_update(self_, /*absolute=*/true, std::move(blocks)));
      break;
    }
    case kMsgReqLocData: {
      const auto& request = packet.payload_as<RequestPayload>();
      LOCUS_ASSERT(request.region != self_);
      // The owner of `request.region` wants our pending deltas for it.
      std::vector<UpdateBlock> blocks = take_deltas(api, request.region);
      if (blocks.empty()) {
        ++shared_.updates_suppressed;
        break;
      }
      send_update(api, packet.src, kMsgSendRmtData,
                  make_update(request.region, /*absolute=*/false, std::move(blocks)));
      break;
    }
    case kMsgWireRequest: {
      LOCUS_ASSERT_MSG(self_ == 0, "wire requests go to the queue owner");
      const auto& request = packet.payload_as<WireRequestPayload>();
      outstanding_wires_ -= request.completed;
      LOCUS_ASSERT(outstanding_wires_ >= 0);
      queued_requests_.push_back(PendingRequest{packet.src, request.resident});
      drain_pending_grants(api);
      break;
    }
    case kMsgWireGrant: {
      const auto& grant = packet.payload_as<WireListPayload>();
      waiting_grant_ = false;
      if (grant.wires.empty()) {
        no_more_ = true;
      } else {
        wire_queue_.insert(wire_queue_.end(), grant.wires.begin(), grant.wires.end());
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
    return self_ == 0 ? master_step(api) : worker_step(api);
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
        send_request(api, region, kMsgReqRmtData, region, interest_bbox_[r]);
        interest_bbox_[r] = Rect::empty();
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
  const Wire& wire = circuit_.wire(wire_id);
  WireRoute& slot = shared_.final_routes[static_cast<std::size_t>(wire_id)];

  RouteWorkStats& work = shared_.work[static_cast<std::size_t>(self_)];
  SimTime cost = 0;
  if (slot.routed()) {
    WireRouter::rip_up(slot, view_with_delta_);
    WireRouter::rip_up(slot, shared_.truth);
    cost += static_cast<SimTime>(slot.cell_count()) * TimeModel::kCommitNs;
    note_route_segments(slot);
    ++work.ripups;
  }

  const RouteWorkStats before = work;
  slot = router_.route_wire(wire, view_with_delta_, work);
  cost += TimeModel::routing_time_ns(work.probes - before.probes,
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

// --- dynamic wire assignment (paper §4.2, DESIGN.md §11) ---

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

RouterNode::TakeStatus RouterNode::take_wires(
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
      // The next iteration starts only once every granted wire's
      // completion has been reported; granting across the boundary would
      // let two processors hold the same wire's route slot.
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
      for (PendingRequest& d : deferred_requests_) {
        queued_requests_.push_back(std::move(d));
      }
      deferred_requests_.clear();
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

void RouterNode::send_grant(NodeApi& api, ProcId dst, std::vector<WireId> wires,
                            std::int32_t iteration) {
  const auto count = static_cast<std::int32_t>(wires.size());
  // Single-wire (and no-more) grants carry an 8-byte payload; only real
  // batches pay the list form.
  const std::int32_t bytes =
      count <= 1 ? grant_packet_bytes() : batch_grant_packet_bytes(count);
  auto [grant, grant_data] = make_payload<WireListPayload>();
  grant_data->iteration = iteration;
  grant_data->wires = std::move(wires);
  send_packet(api, dst, kMsgWireGrant, bytes, std::move(grant), TimeModel::kMsgFixedNs);
  outstanding_wires_ += count;
  shared_.grant_wires += count;
}

void RouterNode::drain_pending_grants(NodeApi& api) {
  while (!queued_requests_.empty()) {
    // By value: the rollover inside take_wires re-queues deferred requests
    // into queued_requests_, which may reallocate it.
    PendingRequest head = std::move(queued_requests_.front());
    queued_requests_.erase(queued_requests_.begin());
    std::int32_t iteration = 0;
    std::vector<WireId> wires;
    const TakeStatus status = take_wires(head.src, head.resident,
                                         config_.dynamic.grant_batch, &iteration, &wires);
    if (status == TakeStatus::kWait) {
      // Rollover gated on outstanding completions; keep the queue intact.
      queued_requests_.insert(queued_requests_.begin(), std::move(head));
      return;
    }
    if (status == TakeStatus::kDefer) {
      deferred_requests_.push_back(std::move(head));
      continue;
    }
    if (status == TakeStatus::kDone) {
      // Run exhausted: radius-deferred requesters get the same final
      // no-more grant as everyone else.
      for (PendingRequest& d : deferred_requests_) {
        queued_requests_.push_back(std::move(d));
      }
      deferred_requests_.clear();
    }
    send_grant(api, head.src, std::move(wires), iteration);
  }
}

void RouterNode::request_wire(NodeApi& api) {
  waiting_grant_ = true;
  auto [request, request_data] = make_payload<WireRequestPayload>();
  request_data->completed = completed_unreported_;
  completed_unreported_ = 0;
  const std::span<const ProcId> resident = resident_summary();
  request_data->resident.assign(resident.begin(), resident.end());
  // The single-wire format sends the header only: its one completion is
  // implied, and FIFO grants read no resident summary.
  const std::int32_t bytes =
      config_.dynamic.extended_protocol()
          ? wire_request_packet_bytes(static_cast<std::int32_t>(resident.size()))
          : request_packet_bytes();
  send_packet(api, 0, kMsgWireRequest, bytes, std::move(request), TimeModel::kMsgFixedNs);
}

bool RouterNode::master_step(NodeApi& api) {
  // Queue owner: routes wires itself. Requests are serviced by on_packet
  // between wires (polled) or between routing slices (the "interrupt"
  // model), so a sliced wire is continued first.
  if (slice_remaining_ == 0) {
    std::int32_t iteration = 0;
    std::vector<WireId> mine;
    if (take_wires(0, resident_summary(), 1, &iteration, &mine) != TakeStatus::kOk) {
      return false;  // nothing to route now; arriving requests will wake us
    }
    LOCUS_ASSERT(mine.size() == 1);
    const SimTime cost =
        route_wire_id(api, mine.front(), iteration, /*charge_now=*/false);
    if (config_.assignment_mode != WireAssignmentMode::kDynamicInterrupt) {
      api.advance(cost);
      breakdown().routing_ns += cost;
      fire_sender_updates(api);
      return true;
    }
    slice_remaining_ = cost;
  }
  const SimTime slice = std::min(slice_remaining_, kInterruptSliceNs);
  api.advance(slice);
  breakdown().routing_ns += slice;
  slice_remaining_ -= slice;
  if (slice_remaining_ == 0) fire_sender_updates(api);
  return true;
}

bool RouterNode::worker_step(NodeApi& api) {
  // Worker: request, wait (blocked()), route the granted wires, repeat.
  if (queue_head_ < wire_queue_.size()) {
    const WireId wire = wire_queue_[queue_head_++];
    if (queue_head_ >= wire_queue_.size()) {
      wire_queue_.clear();
      queue_head_ = 0;
    }
    route_wire_id(api, wire, granted_iteration_, /*charge_now=*/true);
    ++completed_unreported_;
    fire_sender_updates(api);
    // The single-wire protocol asks for its next wire in the step that
    // routed this one; the extended protocol asks in the next step, after
    // the packets that arrived meanwhile have been handled.
    if (!config_.dynamic.extended_protocol()) request_wire(api);
    return true;
  }
  if (no_more_) return false;
  if (waiting_grant_) {
    return true;  // the engine parks us via blocked() until a reply lands
  }
  request_wire(api);
  return true;
}

void RouterNode::fire_sender_updates(NodeApi& api) {
  const UpdateSchedule& sched = config_.schedule;

  if (sched.send_rmt_period > 0 && ++wires_since_send_rmt_ >= sched.send_rmt_period) {
    wires_since_send_rmt_ = 0;
    for (ProcId region = 0; region < partition_.num_regions(); ++region) {
      if (region == self_) continue;
      if (!delta_.region_dirty(region)) continue;
      std::vector<UpdateBlock> blocks = take_deltas(api, region);
      LOCUS_ASSERT(!blocks.empty());
      send_update(api, region, kMsgSendRmtData,
                  make_update(region, /*absolute=*/false, std::move(blocks)));
    }
  }

  if (sched.send_loc_period > 0 && ++wires_since_send_loc_ >= sched.send_loc_period) {
    wires_since_send_loc_ = 0;
    std::vector<UpdateBlock> blocks = take_deltas(api, self_);
    if (blocks.empty()) {
      ++shared_.updates_suppressed;
      return;
    }
    // The delta values only located the changes; each block carries
    // absolute data from the view.
    for (UpdateBlock& block : blocks) view_.read_rect(block.bbox, block.values);
    const auto update = make_update(self_, /*absolute=*/true, std::move(blocks));
    // Optimization from §4.3.2: absolute broadcasts go to the four mesh
    // neighbors only.
    for (ProcId neighbor : partition_.neighbors(self_)) {
      send_update(api, neighbor, kMsgSendLocData, update);
    }
    segments_changed_[static_cast<std::size_t>(self_)] = 0;
  }
}

std::vector<UpdateBlock> RouterNode::take_deltas(NodeApi& api, ProcId region) {
  std::vector<UpdateBlock> blocks = delta_.extract_region(region, update_dims_);
  if (!blocks.empty()) {
    const SimTime scan = delta_.last_scan_cells() * TimeModel::kScanCellNs;
    api.advance(scan);
    breakdown().msg_software_ns += scan;
  }
  return blocks;
}

void RouterNode::send_update(NodeApi& api, ProcId dst, std::int32_t type,
                             const std::shared_ptr<const RegionUpdatePayload>& update) {
  const std::vector<UpdateBlock>& blocks = update->blocks;
  LOCUS_ASSERT(!blocks.empty());
  const auto r = static_cast<std::size_t>(update->region);
  std::int32_t bytes = 0;
  // Batching splits the delta scan's changes per tile; a ReqRmtData
  // response is one requested window and keeps the bounding-box price.
  if (config_.shard.batch_updates && type != kMsgRspRmtData) {
    bytes = batched_update_packet_bytes(blocks, update->absolute);
  } else {
    LOCUS_ASSERT(blocks.size() == 1);
    bytes = update_packet_bytes(config_.packet_structure, blocks.front().bbox,
                                update->absolute, segments_changed_[r],
                                partition_.region(update->region).area());
    if (config_.packet_structure == PacketStructure::kWireBased &&
        type != kMsgSendLocData) {
      segments_changed_[r] = 0;
    }
  }
  if (type == kMsgSendRmtData && config_.observer != nullptr) {
    // One ledger event per block: applies fire per block on the receiver, so
    // sent/applied keys match block for block.
    for (const UpdateBlock& block : blocks) {
      config_.observer->on_delta_sent(self_, update->region, block.bbox, block.values);
    }
  }
  // Assembly cost: fixed software overhead plus per-byte packing.
  send_packet(api, dst, type, bytes, update,
              TimeModel::kMsgFixedNs + static_cast<SimTime>(bytes) * TimeModel::kPackByteNs);
}

void RouterNode::send_request(NodeApi& api, ProcId dst, std::int32_t type,
                              ProcId region, const Rect& bbox) {
  auto [request, request_data] = make_payload<RequestPayload>();
  request_data->region = region;
  request_data->bbox = bbox;
  send_packet(api, dst, type, request_packet_bytes(), std::move(request),
              TimeModel::kMsgFixedNs);
}

void RouterNode::send_packet(NodeApi& api, ProcId dst, std::int32_t type,
                             std::int32_t bytes, std::shared_ptr<const PacketPayload> payload,
                             SimTime software_ns) {
  api.advance(software_ns);
  breakdown().msg_software_ns += software_ns;
  api.send(dst, type, bytes, std::move(payload));
  KindTraffic& sent = shared_.sent[msg_kind_index(type)];
  ++sent.packets;
  sent.bytes += static_cast<std::uint64_t>(bytes);
  breakdown().network_copy_ns += kProcessTimeNs;
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
