// Pluggable per-link cost models for the wormhole interconnect.
//
// The paper prices every transfer with a fixed per-byte-hop charge on an
// otherwise contention-free mesh (§2.1); every MP-vs-SHM conclusion is
// therefore conditioned on that interconnect. This seam lets the network
// swap the per-link timing discipline without touching the packet plane:
//
//   kFixed  the paper's model, bit-identical to the pre-seam network: the
//           head waits for the link to free, then advances one HopTime; the
//           link stays busy while all L bytes stream across it.
//   kMd1    bandwidth-limited queueing: each link is a deterministic-service
//           server fed (approximately) Poisson arrivals, so a head entering
//           a link at utilization rho is additionally delayed by the M/D/1
//           mean waiting time  Wq = S·rho / (2·(1-rho))  (S = the packet's
//           service time on that link). Utilization is tracked per link as
//           cumulative busy time over elapsed simulated time, clamped at
//           kMd1RhoMax so delay stays finite and monotone as rho -> 1 (the
//           zsim MD1MemRouter discipline).
//
// Both models keep the per-link accounting the contention experiments
// tabulate: bytes crossed, busy time (-> utilization), and stall events.
// Fat-tree links can be "fat": Topology::link_capacity_scale() multiplies a
// link's drain rate, so a level-l tree link serves bytes scale× faster than
// a mesh hop (the md1 service time shrinks; kFixed ignores capacity to
// stay bit-identical to the paper's charge).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/topology.hpp"

namespace locus {

/// HopTime (paper §2.1): one byte crossing one link.
inline constexpr SimTime kHopTimeNs = 100;

/// kMd1 utilization clamp. The closed form diverges at rho = 1; clamping
/// keeps the delay finite, monotone, and overflow-free in saturation.
inline constexpr double kMd1RhoMax = 0.95;

enum class LinkCostModelKind : std::int8_t { kFixed, kMd1 };

const char* link_cost_model_name(LinkCostModelKind kind);

struct LinkCostParams {
  LinkCostModelKind kind = LinkCostModelKind::kFixed;
};

/// M/D/1 mean queueing delay for a packet whose deterministic service time
/// is `service_ns`, entering a server at utilization `rho`:
///     Wq = service_ns · rho / (2 · (1 - rho)),   rho clamped to
///     [0, kMd1RhoMax].
/// Pure and total: never overflows, and is monotone non-decreasing in rho
/// (the golden tests pin the closed form and the saturation clamp).
SimTime md1_wait_ns(SimTime service_ns, double rho);

/// End-of-run aggregate of the per-link counters (utilization needs a
/// "now"; the harness passes the machine's drain time).
struct LinkUsageSummary {
  double max_utilization = 0.0;   ///< busiest link's busy/elapsed
  double mean_utilization = 0.0;  ///< over links that carried any traffic
  std::int32_t links_used = 0;    ///< links that carried at least one byte
  std::uint64_t stalls = 0;       ///< contention/backpressure stall events
  SimTime stall_ns = 0;           ///< simulated time heads spent stalled
};

class LinkCostModel {
 public:
  static std::unique_ptr<LinkCostModel> make(const Topology& topology,
                                             const LinkCostParams& params);
  virtual ~LinkCostModel() = default;

  LinkCostModelKind kind() const { return kind_; }

  /// Crosses one link: the head arrives at the link's entrance at `head_in`
  /// and the packet's `bytes` follow. Returns the head's exit time, which is
  /// always `start + kHopTimeNs` where `start >= head_in` is when the head was
  /// granted the link; adds `start - head_in` to `waited`. Also charges the
  /// per-link byte/busy/stall accounting.
  virtual SimTime cross(std::int32_t link, SimTime head_in, std::int64_t bytes,
                        SimTime& waited) = 0;

  /// Counts `bytes` against `link` without reserving it — the control-plane
  /// charge (Network::charge_control), which is modeled on a dedicated
  /// virtual channel and never perturbs the foreground timeline.
  void account(std::int32_t link, std::int64_t bytes) {
    bytes_[static_cast<std::size_t>(link)] += static_cast<std::uint64_t>(bytes);
  }

  /// Bytes that crossed each directed link (data + control). Summed over
  /// links this equals NetworkStats::byte_hops exactly — the conservation
  /// law the network test battery asserts for every model × topology.
  const std::vector<std::uint64_t>& link_bytes() const { return bytes_; }
  /// Stall events per directed link: crossings whose head waited, for the
  /// link to free or (under kMd1) in the M/D/1 queue.
  const std::vector<std::uint64_t>& link_stalls() const { return stalls_; }

  /// Busy time of each directed link so far.
  const std::vector<SimTime>& link_busy_ns() const { return busy_ns_; }

  /// Busy time of `link` over the elapsed simulated time [0, now].
  double utilization(std::int32_t link, SimTime now) const {
    return utilization_of(busy_ns_[static_cast<std::size_t>(link)], now);
  }
  /// `busy` over [0, now], clamped to 1; 0 before any time has elapsed.
  static double utilization_of(SimTime busy, SimTime now);
  LinkUsageSummary summary(SimTime now) const;

 protected:
  LinkCostModel(LinkCostModelKind kind, std::size_t num_links)
      : kind_(kind), free_(num_links, 0), bytes_(num_links, 0),
        busy_ns_(num_links, 0), stalls_(num_links, 0), stall_ns_(num_links, 0) {}

  void charge(std::size_t link, std::int64_t bytes, SimTime busy) {
    bytes_[link] += static_cast<std::uint64_t>(bytes);
    busy_ns_[link] += busy;
  }
  void stall(std::size_t link, SimTime ns) {
    if (ns <= 0) return;
    ++stalls_[link];
    stall_ns_[link] += ns;
  }

  LinkCostModelKind kind_;
  std::vector<SimTime> free_;  ///< per-link: busy streaming until here
  std::vector<std::uint64_t> bytes_;
  std::vector<SimTime> busy_ns_;
  std::vector<std::uint64_t> stalls_;
  std::vector<SimTime> stall_ns_;
};

}  // namespace locus
