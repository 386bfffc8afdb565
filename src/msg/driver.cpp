#include "msg/driver.hpp"

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "msg/node.hpp"
#include "msg/observer.hpp"
#include "route/quality.hpp"
#include "sim/topology.hpp"
#include "support/assert.hpp"

namespace locus {

void MpConfig::validate(std::int32_t procs) const {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("MpConfig: " + what);
  };
  if (iterations < 1) {
    reject("iterations must be >= 1, got " + std::to_string(iterations));
  }
  // Receiver-initiated requesting needs the static wire list for lookahead;
  // the dynamic queue modes run with sender-initiated (or no) updates.
  if (assignment_mode != WireAssignmentMode::kStatic && schedule.receiver_enabled()) {
    reject("schedule.req_rmt_touches = " + std::to_string(schedule.req_rmt_touches) +
           " (receiver-initiated) cannot be used with dynamic assignment_mode " +
           std::to_string(static_cast<int>(assignment_mode)));
  }
  // Batching tightens exactly the bounding-box encoding; the wire-based and
  // whole-region byte models have no per-block form.
  if (shard.batch_updates && packet_structure != PacketStructure::kBoundingBox) {
    reject("shard.batch_updates requires the bounding-box packet_structure, got " +
           std::to_string(static_cast<int>(packet_structure)));
  }
  // Every view and delta array is tiled, and TileGrid's index math needs
  // power-of-two sides.
  for (const auto& [field, v] : {std::pair{"shard.tile.channels", shard.tile.channels},
                                 std::pair{"shard.tile.cols", shard.tile.cols}}) {
    if (v < 1 || (v & (v - 1)) != 0) {
      reject(std::string(field) + " must be a positive power of two, got " +
             std::to_string(v));
    }
  }
  if (edges != Topology::Edges::kFatTree && !topology_dims.empty()) {
    std::int64_t product = 1;
    for (std::int32_t d : topology_dims) product *= d;
    if (product != procs) {
      reject("topology_dims multiply to " + std::to_string(product) +
             ", not the processor count " + std::to_string(procs));
    }
  }
}

namespace {

/// Publishes a finished run's statistics into the obs registry, once. Every
/// counter is a copy of a field the engine keeps for its own reporting, so
/// the two cannot disagree; the transport counters exist only for runs
/// that had one.
void publish_obs(obs::Obs& o, const MpRunResult& r, bool transport) {
  obs::CounterRegistry& reg = o.counters();
  const auto put = [&reg](const std::string& name, auto value) {
    reg.add(reg.counter(name), static_cast<std::uint64_t>(value));
  };
  put("net.packets", r.network.packets);
  put("net.bytes", r.network.bytes);
  put("net.byte_hops", r.network.byte_hops);
  put("net.hops", r.network.hops);
  put("net.link_wait_ns", r.network.total_link_wait_ns);
  put("net.dup_deliveries", r.network.duplicate_deliveries);
  for (const auto& [type, bytes] : r.network.bytes_by_type) {
    put(std::string("net.bytes_by_type.") + msg_kind_name(type), bytes);
  }
  // Per-link interconnect usage from the active cost model: total bytes
  // across all directed links (== net.byte_hops — the conservation law),
  // backpressure/contention stalls, and a utilization histogram in permille
  // over the links that carried traffic.
  std::uint64_t link_bytes_total = 0;
  for (std::uint64_t b : r.link_bytes) link_bytes_total += b;
  put("net.link_bytes_total", link_bytes_total);
  put("net.link_stalls", r.link_usage.stalls);
  put("net.link_stall_ns", r.link_usage.stall_ns);
  const obs::MetricId util_hist = reg.histogram("net.link_util_permille");
  for (std::size_t link = 0; link < r.link_bytes.size(); ++link) {
    if (r.link_bytes[link] == 0) continue;
    const double u =
        LinkCostModel::utilization_of(r.link_busy_ns[link], r.machine.drain_time);
    reg.observe(util_hist, static_cast<std::uint64_t>(u * 1000.0));
  }
  put("sim.events", r.machine.events);
  put("route.routes_evaluated", r.work.routes_evaluated);
  put("route.probes", r.work.probes);
  put("mp.wires_routed", r.work.wires_routed);
  put("mp.cells_committed", r.work.cells_committed);
  put("mp.ripups", r.work.ripups);
  put("mp.updates_suppressed", r.updates_suppressed);
  put("mp.dyn.grants", r.grants_issued);
  put("mp.dyn.grant_wires", r.grant_wires);
  put("mp.dyn.affinity_hits", r.affinity_grants);
  for (std::size_t k = 0; k < kMsgKinds; ++k) {
    const std::string kind = kMsgKindNames[k];
    put("mp.sent." + kind, r.sent_by_kind[k].packets);
    put("mp.sent_bytes." + kind, r.sent_by_kind[k].bytes);
    put("mp.recv." + kind, r.received_by_kind[k].packets);
    put("mp.recv_bytes." + kind, r.received_by_kind[k].bytes);
  }
  put("grid.view_resident_cells", r.view_resident_cells);
  put("grid.view_resident_bytes", r.view_resident_bytes);
  if (transport) {
    put("mp.retx", r.transport.retransmits);
    put("mp.retx_bytes", r.transport.retransmit_bytes);
    put("mp.dup_dropped", r.transport.dup_dropped);
    put("mp.ack_bytes", r.transport.ack_bytes);
    put("mp.acks_sent", r.transport.acks_sent);
    put("mp.piggyback_acks", r.transport.piggyback_acks);
    put("mp.wire_losses", r.transport.wire_losses);
    put("mp.out_of_order", r.transport.out_of_order);
    put("mp.gave_up", r.transport.gave_up);
    put("mp.window_stalls", r.transport.window_stalls);
  }
}

}  // namespace

MpRunResult run_message_passing(const Circuit& circuit, const Partition& partition,
                                const Assignment& assignment,
                                const MpConfig& config) {
  LOCUS_ASSERT(assignment.num_procs() == partition.num_regions());
  LOCUS_ASSERT(assignment_is_valid(assignment, circuit));
  config.validate(partition.num_regions());

  Topology topology = [&] {
    if (config.edges == Topology::Edges::kFatTree) {
      // Processors sit at the tree's leaves; the cost-array partition stays
      // 2D and processor ids map by index, exactly as for topology_dims.
      return Topology::fat_tree(partition.num_regions(), config.fat_tree_arity);
    }
    std::vector<std::int32_t> dims = config.topology_dims;
    if (dims.empty()) dims = {partition.mesh().cols, partition.mesh().rows};
    return Topology(dims, config.edges);
  }();

  NetworkParams net;
  net.hop_time_ns = config.time.hop_time_ns;
  net.process_time_ns = config.time.process_time_ns;
  net.cost = config.link_cost;
  Machine machine(topology, net);
  if (config.faults != nullptr && config.faults->any()) {
    machine.set_fault_plan(*config.faults);
  }
  std::unique_ptr<ReliableTransport> transport;
  if (config.transport.enabled) {
    transport = std::make_unique<ReliableTransport>(
        config.transport, machine.network_mut(), machine.queue(),
        machine.fault_injector());
    machine.network_mut().set_transport(transport.get());
  }

  MpShared shared(circuit);
  if (config.obs != nullptr) {
    machine.set_obs(config.obs);
    shared.route_spans.bind(config.obs);
  }
  shared.final_routes.resize(static_cast<std::size_t>(circuit.num_wires()));
  shared.occupancy.assign(static_cast<std::size_t>(partition.num_regions()), 0);
  shared.work.assign(static_cast<std::size_t>(partition.num_regions()), {});
  shared.time_breakdown.assign(static_cast<std::size_t>(partition.num_regions()), {});

  for (ProcId p = 0; p < partition.num_regions(); ++p) {
    machine.set_node(p, std::make_unique<RouterNode>(
                            circuit, partition, config,
                            assignment.wires_per_proc[static_cast<std::size_t>(p)],
                            p, shared));
  }

  MpRunView run_view;
  if (config.observer != nullptr) {
    run_view.partition = &partition;
    run_view.truth = &shared.truth;
    run_view.nodes.reserve(static_cast<std::size_t>(partition.num_regions()));
    for (ProcId p = 0; p < partition.num_regions(); ++p) {
      const auto* node = dynamic_cast<const RouterNode*>(machine.node(p));
      LOCUS_ASSERT(node != nullptr);
      run_view.nodes.push_back(node);
    }
    config.observer->on_run_start(run_view);
  }

  MpRunResult result;
  result.machine = machine.run();
  result.network = machine.network().stats();
  result.link_usage = machine.network().link_usage(result.machine.drain_time);
  result.link_bytes = machine.network().link_cost().link_bytes();
  result.link_busy_ns = machine.network().link_cost().link_busy_ns();
  result.faults = machine.fault_stats();
  if (transport != nullptr) {
    transport->finalize();  // asserts the conservation ledger balances
    result.transport = transport->stats();
  }
  if (config.observer != nullptr) {
    config.observer->on_run_end(run_view);
  }

  result.completion_ns = result.machine.completion_time;
  result.bytes_transferred = result.network.bytes;

  for (const WireRoute& r : shared.final_routes) {
    LOCUS_ASSERT_MSG(r.routed(), "every wire must end up routed");
  }
  // The incrementally maintained oracle must agree with a rebuild from the
  // final routes — rip-up exactly reversed every superseded commitment.
  LOCUS_ASSERT(shared.truth ==
               rebuild_cost(circuit.channels(), circuit.grids(), shared.final_routes));
  result.circuit_height = circuit_height(shared.truth);
  for (std::int64_t occ : shared.occupancy) result.occupancy_factor += occ;
  for (const RouteWorkStats& w : shared.work) result.work += w;
  for (const TimeBreakdown& tb : shared.time_breakdown) result.time_breakdown += tb;
  result.updates_suppressed = shared.updates_suppressed;
  result.requests_sent = shared.requests_sent;
  result.grants_issued = shared.grants_issued;
  result.grant_wires = shared.grant_wires;
  result.affinity_grants = shared.affinity_grants;
  result.sent_by_kind = shared.sent;
  result.received_by_kind = shared.received;
  result.routed_per_proc.reserve(shared.work.size());
  for (const RouteWorkStats& w : shared.work) {
    result.routed_per_proc.push_back(w.wires_routed);
  }

  // Staleness of the surviving views against the truth oracle.
  std::int64_t total_error = 0;
  std::int64_t own_error = 0;
  std::int64_t own_cells = 0;
  const std::int64_t cells = shared.truth.size();
  // An absent tile reads as zero, so its error is |truth| cell for cell;
  // summing |truth| once lets the scan visit resident tiles only.
  std::int64_t truth_abs_total = 0;
  for (std::int32_t v : shared.truth.cells()) truth_abs_total += std::abs(v);
  std::int64_t view_resident_cells = 0;
  std::int64_t view_resident_bytes = 0;
  for (ProcId p = 0; p < partition.num_regions(); ++p) {
    const auto* node = dynamic_cast<const RouterNode*>(machine.node(p));
    LOCUS_ASSERT(node != nullptr);
    const TiledCostArray& view = node->view();
    view_resident_cells += view.resident_cells();
    view_resident_bytes += view.resident_bytes();
    const std::int32_t stride = view.tiles().tile_cols();
    std::int64_t resident_err = 0;
    std::int64_t resident_truth_abs = 0;
    view.tiles().for_each_resident_tile([&](const Rect& b, const std::int32_t* tile) {
      for (std::int32_t c = b.channel_lo; c <= b.channel_hi; ++c) {
        const std::int32_t* row =
            tile + static_cast<std::size_t>(c - b.channel_lo) * stride;
        const std::int32_t* truth_row =
            shared.truth.cells().data() +
            static_cast<std::size_t>(c) * circuit.grids() + b.x_lo;
        for (std::int32_t i = 0; i <= b.x_hi - b.x_lo; ++i) {
          resident_err += std::abs(row[i] - truth_row[i]);
          resident_truth_abs += std::abs(truth_row[i]);
        }
      }
    });
    total_error += resident_err + (truth_abs_total - resident_truth_abs);
    // The own region is pinned resident, so per-cell reads stay cheap.
    const Rect own = partition.region(p);
    for (std::int32_t c = own.channel_lo; c <= own.channel_hi; ++c) {
      for (std::int32_t x = own.x_lo; x <= own.x_hi; ++x) {
        const GridPoint cell{c, x};
        own_error += std::abs(view.at(cell) - shared.truth.at(cell));
        ++own_cells;
      }
    }
  }
  result.view_resident_cells = view_resident_cells;
  result.view_resident_bytes = view_resident_bytes;
  result.view_staleness =
      static_cast<double>(total_error) /
      static_cast<double>(cells * partition.num_regions());
  result.own_region_staleness =
      own_cells == 0 ? 0.0
                     : static_cast<double>(own_error) / static_cast<double>(own_cells);

  result.routes = std::move(shared.final_routes);
  if (config.obs != nullptr) publish_obs(*config.obs, result, config.transport.enabled);
  return result;
}

MpRunResult run_message_passing(const Circuit& circuit, std::int32_t procs,
                                const MpConfig& config) {
  const MeshShape mesh = MeshShape::for_procs(procs);
  const Partition partition(circuit.channels(), circuit.grids(), mesh);
  const Assignment assignment = assign_threshold_cost(circuit, partition, 1000);
  return run_message_passing(circuit, partition, assignment, config);
}

}  // namespace locus
