// Observability façade.
//
// One `Obs` instance per measured run owns the counter registry and the
// (optional) trace sink; callers hand an `Obs*` to the run configs
// (MpConfig::obs, ShmConfig::obs, ...) and read the metrics afterwards.
//
// Counting happens once, in the engines' own stats structs (NetworkStats,
// MachineStats, RouteWorkStats, MpRunResult, CoherenceTraffic, ...). Each
// run publishes those finished structs into the registry at its end
// (run_message_passing, run_shared_memory, CoherenceSim::publish_obs), so
// an obs counter and the engine statistic it names cannot disagree. What
// the engines keep no total for is recorded per event: the histograms
// (packet latency and size, queue depth) and every trace span and instant.
//
// Gating is a runtime null check: a null Obs* (the default everywhere)
// leaves each per-event site one predictable branch, and the end-of-run
// publish is skipped. The per-domain binding structs below resolve metric
// ids and interned strings once at bind() time, keeping name lookups out of
// every hot loop.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace locus::obs {

struct ObsOptions {
  /// Record trace events (counters are always on).
  bool trace = false;
  /// Per-hop traversal instants in the trace (voluminous).
  bool hop_detail = false;
};

class Obs {
 public:
  explicit Obs(ObsOptions options = {}) : options_(options) {
    if (options.trace) {
      trace_ = std::make_unique<TraceSink>(
          TraceSink::Options{.hop_detail = options.hop_detail});
    }
  }

  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }
  /// Null when tracing is off.
  TraceSink* trace() { return trace_.get(); }
  const TraceSink* trace() const { return trace_.get(); }
  const ObsOptions& options() const { return options_; }

 private:
  ObsOptions options_;
  CounterRegistry counters_;
  std::unique_ptr<TraceSink> trace_;
};

// --- per-domain bindings -------------------------------------------------
//
// Each struct resolves its metric ids / interned strings once in bind();
// `explicit operator bool()` is the runtime gate at the hook site. All
// methods assume the binding is live.

/// sim/network.cpp: per-packet latency and size histograms plus packet
/// inject/deliver trace instants connected by a flow arrow (and per-hop
/// instants when hop_detail is on).
struct NetworkObs {
  Obs* obs = nullptr;
  MetricId latency_ns = 0;    ///< histogram: injection->delivery per packet
  MetricId packet_bytes = 0;  ///< histogram
  TraceSink::StrId cat_net = 0;
  TraceSink::StrId n_inject = 0;
  TraceSink::StrId n_deliver = 0;
  TraceSink::StrId n_hop = 0;
  TraceSink::StrId n_flow = 0;
  TraceSink::StrId a_type = 0;
  TraceSink::StrId a_bytes = 0;
  TraceSink::StrId a_peer = 0;
  TraceSink::StrId a_link = 0;

  void bind(Obs* o);
  explicit operator bool() const { return obs != nullptr; }
};

/// sim/event_queue.cpp: pending-depth histogram sampled at each dispatch.
struct QueueObs {
  Obs* obs = nullptr;
  MetricId depth = 0;

  void bind(Obs* o);
  explicit operator bool() const { return obs != nullptr; }
};

/// msg/node.cpp and shm/shm_router.cpp: one "route_wire" span per routed
/// wire on the routing processor's track. Live only when tracing is on.
struct RouteSpanObs {
  TraceSink* trace = nullptr;
  TraceSink::StrId cat_route = 0;
  TraceSink::StrId n_route = 0;
  TraceSink::StrId a_wire = 0;
  TraceSink::StrId a_iteration = 0;

  void bind(Obs* o);
  explicit operator bool() const { return trace != nullptr; }

  void span(std::int32_t track, TraceTime start, TraceTime duration,
            std::int64_t wire, std::int64_t iteration) const {
    trace->complete(track, cat_route, n_route, start, duration, a_wire, wire,
                    a_iteration, iteration);
  }
};

/// coherence/simulator.cpp: protocol traffic mirrored into named counters.
/// CoherenceSim::publish_obs() performs the copy (the replay loop itself
/// stays untouched); replays published into one registry add up.
struct CoherenceObsNames {
  static constexpr const char* kAccesses = "coh.accesses";
  static constexpr const char* kReadMisses = "coh.read_misses";
  static constexpr const char* kWriteMisses = "coh.write_misses";
  static constexpr const char* kInvalidations = "coh.invalidations";
  static constexpr const char* kColdFetchBytes = "coh.cold_fetch_bytes";
  static constexpr const char* kRefetchBytes = "coh.refetch_bytes";
  static constexpr const char* kWriteFetchBytes = "coh.write_fetch_bytes";
  static constexpr const char* kWordWriteBytes = "coh.word_write_bytes";
  static constexpr const char* kReadFlushBytes = "coh.read_flush_bytes";
  static constexpr const char* kWriteFlushBytes = "coh.write_flush_bytes";
  static constexpr const char* kEvictionWritebackBytes =
      "coh.eviction_writeback_bytes";
  static constexpr const char* kTotalBytes = "coh.total_bytes";
  static constexpr const char* kLinesTouched = "coh.lines_touched";
};

}  // namespace locus::obs
