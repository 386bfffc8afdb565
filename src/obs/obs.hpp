// Observability façade and compile/runtime gate.
//
// One `Obs` instance per measured run owns the counter registry and the
// (optional) trace sink; callers hand an `Obs*` to the run configs
// (MpConfig::obs, ShmConfig::obs, ...) and read the metrics afterwards.
//
// Gating, two layers:
//   * compile time — the CMake option LOCUS_OBS (default ON) defines
//     LOCUS_OBS_ENABLED; when OFF, every instrumentation site compiles to
//     nothing via LOCUS_OBS_HOOK() and the binaries carry zero
//     observability cost;
//   * run time — a null Obs* (the default everywhere) short-circuits each
//     hook to one predictable branch, so un-instrumented runs of an
//     instrumented binary stay effectively free.
// Hook sites are written as
//     LOCUS_OBS_HOOK(if (obs_) obs_.on_something(...));
// and the per-domain binding structs below resolve metric ids and interned
// strings once at bind() time, keeping name lookups out of every hot loop.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

#ifndef LOCUS_OBS_ENABLED
#define LOCUS_OBS_ENABLED 1
#endif

#if LOCUS_OBS_ENABLED
#define LOCUS_OBS_HOOK(...) \
  do {                      \
    __VA_ARGS__;            \
  } while (0)
#else
#define LOCUS_OBS_HOOK(...) \
  do {                      \
  } while (0)
#endif

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
// methods assume obs != nullptr.

/// sim/network.cpp: wire-level traffic counters plus packet inject/deliver
/// trace instants connected by a flow arrow (and per-hop instants when
/// hop_detail is on).
struct NetworkObs {
  Obs* obs = nullptr;
  MetricId packets = 0;
  MetricId bytes = 0;
  MetricId byte_hops = 0;
  MetricId hops = 0;
  MetricId link_wait_ns = 0;
  MetricId dup_deliveries = 0;  ///< fault-injected duplicate wire copies
  MetricId latency_ns = 0;      ///< histogram: injection->delivery per packet
  MetricId packet_bytes = 0;    ///< histogram
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

/// sim/event_queue.cpp: dispatch count + pending-depth histogram.
struct QueueObs {
  Obs* obs = nullptr;
  MetricId events = 0;
  MetricId depth = 0;  ///< histogram of heap size at dispatch

  void bind(Obs* o);
  explicit operator bool() const { return obs != nullptr; }
};

/// route/explorer.cpp: pricing work per run (reads of the cost array the
/// simulated router performs, whichever host engine priced them).
struct ExplorerObs {
  Obs* obs = nullptr;
  MetricId connections = 0;
  MetricId routes_evaluated = 0;
  MetricId cells_probed = 0;

  void bind(Obs* o);
  explicit operator bool() const { return obs != nullptr; }

  void note(std::int64_t routes, std::int64_t cells) const {
    CounterRegistry& reg = obs->counters();
    reg.add(connections, 1);
    reg.add(routes_evaluated, static_cast<std::uint64_t>(routes));
    reg.add(cells_probed, static_cast<std::uint64_t>(cells));
  }
};

/// msg/node.cpp: per-packet-kind send/receive
/// counters, rip-ups, and per-wire route spans.
struct MpNodeObs {
  Obs* obs = nullptr;
  /// Indexed by msg_kind_index(); the last slot catches unknown types.
  static constexpr std::size_t kKinds = 9;
  std::array<MetricId, kKinds> sent{};
  std::array<MetricId, kKinds> sent_bytes{};
  std::array<MetricId, kKinds> received{};
  std::array<MetricId, kKinds> received_bytes{};
  MetricId ripups = 0;
  MetricId wires_routed = 0;
  MetricId cells_committed = 0;
  MetricId updates_suppressed = 0;
  MetricId batched_updates = 0;  ///< region-batched packets sent
  MetricId batched_blocks = 0;   ///< tight blocks carried by those packets
  MetricId grants = 0;           ///< wire grants sent (queue owner)
  MetricId grant_wires = 0;      ///< wires carried by those grants
  MetricId affinity_hits = 0;    ///< grants satisfied from a resident bucket
  TraceSink::StrId cat_route = 0;
  TraceSink::StrId n_route = 0;
  TraceSink::StrId a_wire = 0;
  TraceSink::StrId a_iteration = 0;

  void bind(Obs* o);
  explicit operator bool() const { return obs != nullptr; }
};

/// Dense index for a MsgType value (msg/packets.hpp); unknown values map to
/// MpNodeObs::kKinds - 1.
std::size_t msg_kind_index(std::int32_t type);
/// Human name of a MsgType value ("SendLocData", ...; "Unknown" otherwise).
const char* msg_kind_name(std::int32_t type);

/// shm/shm_router.cpp: per-wire spans and routing work counters for the
/// shared memory executor.
struct ShmObs {
  Obs* obs = nullptr;
  MetricId wires_routed = 0;
  MetricId ripups = 0;
  MetricId cells_committed = 0;
  MetricId trace_refs = 0;
  TraceSink::StrId cat_route = 0;
  TraceSink::StrId n_route = 0;
  TraceSink::StrId a_wire = 0;
  TraceSink::StrId a_iteration = 0;

  void bind(Obs* o);
  explicit operator bool() const { return obs != nullptr; }
};

/// coherence/simulator.cpp: protocol traffic mirrored into named counters.
/// CoherenceSim::publish_obs() performs the copy (the replay loop itself
/// stays untouched); prefix distinguishes multiple replays in one registry.
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
