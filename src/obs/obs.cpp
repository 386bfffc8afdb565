#include "obs/obs.hpp"

namespace locus::obs {

void NetworkObs::bind(Obs* o) {
  obs = o;
  if (obs == nullptr) return;
  CounterRegistry& reg = obs->counters();
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
  depth = obs->counters().histogram("sim.queue_depth");
}

void RouteSpanObs::bind(Obs* o) {
  trace = o != nullptr ? o->trace() : nullptr;
  if (trace == nullptr) return;
  cat_route = trace->intern("route");
  n_route = trace->intern("route_wire");
  a_wire = trace->intern("wire");
  a_iteration = trace->intern("iteration");
}

}  // namespace locus::obs
