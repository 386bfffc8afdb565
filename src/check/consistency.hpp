// View-consistency checking for the message passing router.
//
// The checker rides along a run as an MpObserver and maintains an external
// ledger of every delta handed to the network ("in flight"). At configurable
// checkpoints (every N routed wires) and once more at run end it asserts the
// conservation law
//
//     truth(q) == view_owner(q) + sum_{r != owner} delta_r(q) + inflight(q)
//
// for every cost-array cell q: the true occupancy of a cell equals what its
// owner believes, plus every remote processor's not-yet-propagated delta,
// plus deltas on the wire. In the terms of Partition Consistency
// (arXiv:1306.0077) the cost grid is partitioned by owner region, and each
// partition must reconcile: its owner's copy plus every write to it that is
// still buffered at another processor or in transit equals the true value.
// Run end adds convergence: nothing may be left in flight or outstanding.
// In a fault-free run the law holds at every inter-event instant of the
// sequential DES; each fault class leaves a distinct signature:
//   * dropped SendRmtData  -> inflight(q) stays nonzero forever, reported
//     as non-convergence at run end;
//   * duplicated SendRmtData -> the second application finds no matching
//     outstanding packet in the send ledger, flagged immediately (the
//     per-cell equality alone cannot see a duplicate: the extra view
//     increment and the extra inflight decrement cancel);
//   * delayed / reordered packets -> no violation: the law is closed under
//     any delivery schedule, which is itself a useful meta-check.
// Every sent delta must also fit the §4.3.1 byte model the traffic is
// priced with (msg/packets.hpp): a 16-bit region id and bbox coordinates in
// the header and one signed byte per cell. A delta that does not is counted
// as unencodable, and the run is then not consistent.
//
// Each check recomputes the whole law from engine state — never from
// residuals the hooks maintain, which would check the hooks rather than the
// books (DESIGN.md §7.7). Its cost is one contiguous pass over every
// processor's delta array into a grid-sized accumulator seeded with the
// in-flight ledger, plus one pass over each owned region (the owner's view,
// the truth, and the owner's own delta, which the accumulator includes and
// the law excludes).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geom/partition.hpp"
#include "geom/point.hpp"
#include "msg/observer.hpp"

namespace locus {

struct ConsistencyOptions {
  /// Run the full conservation check every N routed wires (0: only at run
  /// end; negative is rejected). Each check costs a pass over every
  /// processor's delta array, so its price grows with grid size x procs.
  std::int32_t checkpoint_period = 1;
  /// Cap on recorded violation samples (counters keep exact totals).
  std::size_t max_samples = 16;
};

/// One cell whose books did not balance at a checkpoint.
struct ConsistencyViolation {
  std::int64_t checkpoint = 0;  ///< routed-wire count when detected
  GridPoint cell;
  ProcId owner = -1;
  std::int64_t truth = 0;
  std::int64_t accounted = 0;  ///< owner view + pending deltas + inflight
};

struct ConsistencyReport {
  std::int64_t checkpoints = 0;
  std::int64_t cells_checked = 0;
  std::int64_t violations = 0;            ///< cells failing the equality
  std::int64_t unmatched_applies = 0;     ///< duplicate-delivery detections
  std::vector<ConsistencyViolation> samples;

  std::int64_t deltas_sent = 0;
  std::int64_t deltas_applied = 0;
  std::int64_t final_inflight_cells = 0;  ///< cells with inflight != 0 at end
  std::int64_t final_inflight_sum = 0;    ///< sum of |inflight| at end
  std::int64_t final_outstanding_packets = 0;  ///< sent but never applied

  /// Sent deltas the byte model cannot carry: a cell outside int8, or a
  /// region id or bbox coordinate outside int16.
  std::int64_t unencodable_deltas = 0;

  bool run_ended = false;

  /// The conservation law held at every checkpoint, no duplicate was seen
  /// and every sent delta fit the byte model.
  bool consistent() const {
    return violations == 0 && unmatched_applies == 0 && unencodable_deltas == 0;
  }
  /// The run drained with every sent delta accounted for at its owner.
  bool converged() const {
    return run_ended && consistent() && final_inflight_cells == 0 &&
           final_outstanding_packets == 0;
  }
};

class ViewConsistencyChecker final : public MpObserver {
 public:
  /// Throws std::invalid_argument when options.checkpoint_period < 0.
  explicit ViewConsistencyChecker(ConsistencyOptions options = {});

  void on_run_start(const MpRunView& run) override;
  void on_delta_sent(ProcId from, ProcId region, const Rect& bbox,
                     std::span<const std::int32_t> values) override;
  void on_delta_applied(ProcId owner, const Rect& bbox,
                        std::span<const std::int32_t> values) override;
  void on_wire_routed(ProcId proc, WireId wire, std::int32_t iteration) override;
  void on_run_end(const MpRunView& run) override;

  const ConsistencyReport& report() const { return report_; }

 private:
  void check_conservation();
  void record(const ConsistencyViolation& violation);

  ConsistencyOptions options_;
  ConsistencyReport report_;
  MpRunView run_;                       ///< valid between run start and end
  std::vector<std::int64_t> inflight_;  ///< per cell, row-major like truth
  /// Checkpoint scratch: inflight plus every processor's delta (per cell,
  /// row-major like truth, sized at run start), and one owned region's
  /// view, truth and own delta (grown to the largest region, then reused).
  std::vector<std::int64_t> pending_;
  std::vector<std::int32_t> region_view_;
  std::vector<std::int32_t> region_truth_;
  std::vector<std::int64_t> region_own_delta_;
  /// Outstanding sent-but-not-applied packets, keyed by serialized content.
  /// An apply that finds no outstanding match is a duplicated delivery.
  std::unordered_map<std::string, std::int64_t> outstanding_;
  std::int64_t wires_routed_ = 0;
};

}  // namespace locus
