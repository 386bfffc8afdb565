#include "obs/obs.hpp"

#include <iterator>

namespace locus::obs {

namespace {

// Mirrors MsgType in msg/packets.hpp (values 1..5 and 10..12). Kept as data
// here so obs stays a leaf library the msg layer can link against.
constexpr std::int32_t kMsgValues[] = {1, 2, 3, 4, 5, 10, 11, 12};
constexpr const char* kMsgNames[] = {
    "SendLocData", "SendRmtData", "ReqLocData", "ReqRmtData",
    "RspRmtData",  "WireRequest", "WireGrant",  "Ack",
};
constexpr std::size_t kNamedKinds = std::size(kMsgValues);
static_assert(kNamedKinds + 1 == MpNodeObs::kKinds);

}  // namespace

std::size_t msg_kind_index(std::int32_t type) {
  for (std::size_t i = 0; i < kNamedKinds; ++i) {
    if (kMsgValues[i] == type) return i;
  }
  return MpNodeObs::kKinds - 1;
}

const char* msg_kind_name(std::int32_t type) {
  const std::size_t i = msg_kind_index(type);
  return i < kNamedKinds ? kMsgNames[i] : "Unknown";
}

void NetworkObs::bind(Obs* o) {
  obs = o;
  if (obs == nullptr) return;
  CounterRegistry& reg = obs->counters();
  packets = reg.counter("net.packets");
  bytes = reg.counter("net.bytes");
  byte_hops = reg.counter("net.byte_hops");
  hops = reg.counter("net.hops");
  link_wait_ns = reg.counter("net.link_wait_ns");
  dup_deliveries = reg.counter("net.dup_deliveries");
  latency_ns = reg.histogram("net.packet_latency_ns");
  packet_bytes = reg.histogram("net.packet_bytes");
  if (TraceSink* t = obs->trace()) {
    cat_net = t->intern("net");
    n_inject = t->intern("inject");
    n_deliver = t->intern("deliver");
    n_hop = t->intern("hop");
    n_flow = t->intern("packet");
    a_type = t->intern("type");
    a_bytes = t->intern("bytes");
    a_peer = t->intern("peer");
    a_link = t->intern("link");
  }
}

void QueueObs::bind(Obs* o) {
  obs = o;
  if (obs == nullptr) return;
  CounterRegistry& reg = obs->counters();
  events = reg.counter("sim.events");
  depth = reg.histogram("sim.queue_depth");
}

void ExplorerObs::bind(Obs* o) {
  obs = o;
  if (obs == nullptr) return;
  CounterRegistry& reg = obs->counters();
  connections = reg.counter("route.connections");
  routes_evaluated = reg.counter("route.routes_evaluated");
  cells_probed = reg.counter("route.cells_probed");
}

void MpNodeObs::bind(Obs* o) {
  obs = o;
  if (obs == nullptr) return;
  CounterRegistry& reg = obs->counters();
  for (std::size_t i = 0; i < kNamedKinds; ++i) {
    const std::string base(kMsgNames[i]);
    sent[i] = reg.counter("mp.sent." + base);
    sent_bytes[i] = reg.counter("mp.sent_bytes." + base);
    received[i] = reg.counter("mp.recv." + base);
    received_bytes[i] = reg.counter("mp.recv_bytes." + base);
  }
  sent[kKinds - 1] = reg.counter("mp.sent.Unknown");
  sent_bytes[kKinds - 1] = reg.counter("mp.sent_bytes.Unknown");
  received[kKinds - 1] = reg.counter("mp.recv.Unknown");
  received_bytes[kKinds - 1] = reg.counter("mp.recv_bytes.Unknown");
  ripups = reg.counter("mp.ripups");
  wires_routed = reg.counter("mp.wires_routed");
  cells_committed = reg.counter("mp.cells_committed");
  updates_suppressed = reg.counter("mp.updates_suppressed");
  batched_updates = reg.counter("mp.batch.updates");
  batched_blocks = reg.counter("mp.batch.blocks");
  grants = reg.counter("mp.dyn.grants");
  grant_wires = reg.counter("mp.dyn.grant_wires");
  affinity_hits = reg.counter("mp.dyn.affinity_hits");
  if (TraceSink* t = obs->trace()) {
    cat_route = t->intern("route");
    n_route = t->intern("route_wire");
    a_wire = t->intern("wire");
    a_iteration = t->intern("iteration");
  }
}

void ShmObs::bind(Obs* o) {
  obs = o;
  if (obs == nullptr) return;
  CounterRegistry& reg = obs->counters();
  wires_routed = reg.counter("shm.wires_routed");
  ripups = reg.counter("shm.ripups");
  cells_committed = reg.counter("shm.cells_committed");
  trace_refs = reg.counter("shm.trace_refs");
  if (TraceSink* t = obs->trace()) {
    cat_route = t->intern("route");
    n_route = t->intern("route_wire");
    a_wire = t->intern("wire");
    a_iteration = t->intern("iteration");
  }
}

}  // namespace locus::obs
