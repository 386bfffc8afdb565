// Differential and mutation tests for ViewConsistencyChecker.
//
// The production checker reconciles the conservation law with whole-grid
// span sums. ReferenceConsistencyChecker below is the plain per-cell form of
// the same law (one view.at and one delta().at call per cell and processor),
// kept here as the oracle: a tee feeds both checkers the same run, and their
// ConsistencyReports must agree in every field, including the order and
// content of the violation samples. The mutation tests corrupt engine state
// between checkpoints and require both checkers to flag it at the same
// checkpoint with the same sample. These carry the ctest label `check`.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/consistency.hpp"
#include "circuit/generator.hpp"
#include "circuit/hier_generator.hpp"
#include "grid/cost_array.hpp"
#include "harness/experiments.hpp"
#include "msg/driver.hpp"
#include "msg/node.hpp"
#include "msg/packets.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

/// Per-cell reference for ViewConsistencyChecker: same hooks, same ledger,
/// same report, with the conservation law evaluated one cell at a time.
class ReferenceConsistencyChecker final : public MpObserver {
 public:
  explicit ReferenceConsistencyChecker(ConsistencyOptions options)
      : options_(options) {}

  void on_run_start(const MpRunView& run) override {
    run_ = run;
    inflight_.assign(static_cast<std::size_t>(run.truth->size()), 0);
    outstanding_.clear();
    wires_routed_ = 0;
    report_ = ConsistencyReport{};
  }

  void on_delta_sent(ProcId from, ProcId region, const Rect& bbox,
                     std::span<const std::int32_t> values) override {
    static_cast<void>(from);
    ++report_.deltas_sent;
    add_inflight(bbox, values, +1);
    ++outstanding_[packet_key(region, bbox, values)];
    // One signed byte per delta cell; region id and bbox as int16 (§4.3.1).
    std::int64_t out_of_range = 0;
    for (const std::int32_t id :
         {region, bbox.channel_lo, bbox.channel_hi, bbox.x_lo, bbox.x_hi}) {
      if (id < -32768 || id > 32767) ++out_of_range;
    }
    for (const std::int32_t v : values) {
      if (v < -128 || v > 127) ++out_of_range;
    }
    if (out_of_range > 0) ++report_.unencodable_deltas;
  }

  void on_delta_applied(ProcId owner, const Rect& bbox,
                        std::span<const std::int32_t> values) override {
    ++report_.deltas_applied;
    add_inflight(bbox, values, -1);
    auto it = outstanding_.find(packet_key(owner, bbox, values));
    if (it == outstanding_.end() || it->second <= 0) {
      ++report_.unmatched_applies;
      record(ConsistencyViolation{wires_routed_,
                                  GridPoint{bbox.channel_lo, bbox.x_lo}, owner,
                                  /*truth=*/0, /*accounted=*/0});
    } else if (--it->second == 0) {
      outstanding_.erase(it);
    }
  }

  void on_wire_routed(ProcId proc, WireId wire, std::int32_t iteration) override {
    static_cast<void>(proc);
    static_cast<void>(wire);
    static_cast<void>(iteration);
    ++wires_routed_;
    if (options_.checkpoint_period > 0 &&
        wires_routed_ % options_.checkpoint_period == 0) {
      check_conservation();
    }
  }

  void on_run_end(const MpRunView& run) override {
    static_cast<void>(run);
    report_.run_ended = true;
    check_conservation();
    for (std::int64_t v : inflight_) {
      if (v != 0) {
        ++report_.final_inflight_cells;
        report_.final_inflight_sum += v < 0 ? -v : v;
      }
    }
    for (const auto& [key, count] : outstanding_) {
      report_.final_outstanding_packets += count;
    }
  }

  const ConsistencyReport& report() const { return report_; }

 private:
  /// Little-endian bytes of region, bbox and values, four per int32.
  static std::string packet_key(ProcId region, const Rect& bbox,
                                std::span<const std::int32_t> values) {
    std::string key;
    const auto append_i32 = [&key](std::int32_t v) {
      for (int shift = 0; shift < 32; shift += 8) {
        key.push_back(
            static_cast<char>((static_cast<std::uint32_t>(v) >> shift) & 0xFF));
      }
    };
    append_i32(region);
    append_i32(bbox.channel_lo);
    append_i32(bbox.channel_hi);
    append_i32(bbox.x_lo);
    append_i32(bbox.x_hi);
    for (std::int32_t v : values) append_i32(v);
    return key;
  }

  void add_inflight(const Rect& bbox, std::span<const std::int32_t> values,
                    std::int64_t sign) {
    std::size_t i = 0;
    for (std::int32_t c = bbox.channel_lo; c <= bbox.channel_hi; ++c) {
      for (std::int32_t x = bbox.x_lo; x <= bbox.x_hi; ++x, ++i) {
        inflight_[static_cast<std::size_t>(run_.truth->index(GridPoint{c, x}))] +=
            sign * values[i];
      }
    }
  }

  void check_conservation() {
    ++report_.checkpoints;
    const Partition& partition = *run_.partition;
    const CostArray& truth = *run_.truth;
    for (ProcId owner = 0; owner < partition.num_regions(); ++owner) {
      const Rect& region = partition.region(owner);
      const TiledCostArray& view = run_.nodes[static_cast<std::size_t>(owner)]->view();
      for (std::int32_t c = region.channel_lo; c <= region.channel_hi; ++c) {
        for (std::int32_t x = region.x_lo; x <= region.x_hi; ++x) {
          const GridPoint q{c, x};
          ++report_.cells_checked;
          std::int64_t accounted = view.at(q);
          for (ProcId r = 0; r < partition.num_regions(); ++r) {
            if (r == owner) continue;
            accounted += run_.nodes[static_cast<std::size_t>(r)]->delta().at(q);
          }
          accounted += inflight_[static_cast<std::size_t>(truth.index(q))];
          if (accounted != truth.at(q)) {
            ++report_.violations;
            record(ConsistencyViolation{wires_routed_, q, owner, truth.at(q),
                                        accounted});
          }
        }
      }
    }
  }

  void record(const ConsistencyViolation& violation) {
    if (report_.samples.size() < options_.max_samples) {
      report_.samples.push_back(violation);
    }
  }

  ConsistencyOptions options_;
  ConsistencyReport report_;
  MpRunView run_;
  std::vector<std::int64_t> inflight_;
  std::unordered_map<std::string, std::int64_t> outstanding_;
  std::int64_t wires_routed_ = 0;
};

/// Engine state the tee corrupts (once, at a chosen routed-wire count).
enum class Corruption {
  kNone,
  kViewInsideLastPacket,   ///< owner-view cell inside the last applied bbox
  kViewOutsideLastPacket,  ///< owner-view cell in that region, outside the bbox
  kRemoteDelta,            ///< a non-owner's delta cell, via DeltaArray::add
};

constexpr std::int32_t kCorruptBy = 7;

/// Forwards every hook to two observers. With a corruption set, it changes
/// one cell of engine state right after wire `corrupt_at` is routed, before
/// either checker sees that wire's checkpoint.
class TeeObserver final : public MpObserver {
 public:
  TeeObserver(MpObserver& a, MpObserver& b) : a_(a), b_(b) {}

  Corruption corruption = Corruption::kNone;
  std::int64_t corrupt_at = 0;
  /// The corrupted cell and its owner (valid once a corruption happened).
  GridPoint corrupted_cell;
  ProcId corrupted_owner = -1;
  bool corrupted = false;

  void on_run_start(const MpRunView& run) override {
    run_ = run;
    a_.on_run_start(run);
    b_.on_run_start(run);
  }
  void on_delta_sent(ProcId from, ProcId region, const Rect& bbox,
                     std::span<const std::int32_t> values) override {
    a_.on_delta_sent(from, region, bbox, values);
    b_.on_delta_sent(from, region, bbox, values);
  }
  void on_delta_applied(ProcId owner, const Rect& bbox,
                        std::span<const std::int32_t> values) override {
    last_owner_ = owner;
    last_bbox_ = bbox;
    a_.on_delta_applied(owner, bbox, values);
    b_.on_delta_applied(owner, bbox, values);
  }
  void on_wire_routed(ProcId proc, WireId wire, std::int32_t iteration) override {
    if (++wires_routed_ == corrupt_at && corruption != Corruption::kNone) corrupt();
    a_.on_wire_routed(proc, wire, iteration);
    b_.on_wire_routed(proc, wire, iteration);
  }
  void on_run_end(const MpRunView& run) override {
    a_.on_run_end(run);
    b_.on_run_end(run);
  }

 private:
  void corrupt() {
    ASSERT_GE(last_owner_, 0) << "no delta applied before the corruption point";
    const Rect& region = run_.partition->region(last_owner_);
    corrupted_owner = last_owner_;
    corrupted_cell = GridPoint{last_bbox_.channel_lo, last_bbox_.x_lo};
    if (corruption == Corruption::kViewOutsideLastPacket) {
      bool found = false;
      for (std::int32_t c = region.channel_lo; c <= region.channel_hi && !found; ++c) {
        for (std::int32_t x = region.x_lo; x <= region.x_hi && !found; ++x) {
          if (!last_bbox_.contains(GridPoint{c, x})) {
            corrupted_cell = GridPoint{c, x};
            found = true;
          }
        }
      }
      ASSERT_TRUE(found) << "last packet covered its whole region";
    }
    ASSERT_TRUE(region.contains(corrupted_cell));
    const auto owner = static_cast<std::size_t>(corrupted_owner);
    if (corruption == Corruption::kRemoteDelta) {
      const std::size_t remote = (owner + 1) % run_.nodes.size();
      const_cast<DeltaArray&>(run_.nodes[remote]->delta())
          .add(corrupted_cell, kCorruptBy);
    } else {
      auto& view = const_cast<TiledCostArray&>(run_.nodes[owner]->view());
      view.set(corrupted_cell, view.at(corrupted_cell) + kCorruptBy);
    }
    corrupted = true;
  }

  MpObserver& a_;
  MpObserver& b_;
  MpRunView run_;
  std::int64_t wires_routed_ = 0;
  ProcId last_owner_ = -1;
  Rect last_bbox_;
};

void expect_same_violation(const ConsistencyViolation& got,
                           const ConsistencyViolation& want, std::size_t i) {
  EXPECT_EQ(got.checkpoint, want.checkpoint) << "sample " << i;
  EXPECT_EQ(got.cell, want.cell) << "sample " << i;
  EXPECT_EQ(got.owner, want.owner) << "sample " << i;
  EXPECT_EQ(got.truth, want.truth) << "sample " << i;
  EXPECT_EQ(got.accounted, want.accounted) << "sample " << i;
}

void expect_same_report(const ConsistencyReport& got, const ConsistencyReport& want) {
  EXPECT_EQ(got.checkpoints, want.checkpoints);
  EXPECT_EQ(got.cells_checked, want.cells_checked);
  EXPECT_EQ(got.violations, want.violations);
  EXPECT_EQ(got.unmatched_applies, want.unmatched_applies);
  EXPECT_EQ(got.deltas_sent, want.deltas_sent);
  EXPECT_EQ(got.deltas_applied, want.deltas_applied);
  EXPECT_EQ(got.final_inflight_cells, want.final_inflight_cells);
  EXPECT_EQ(got.final_inflight_sum, want.final_inflight_sum);
  EXPECT_EQ(got.final_outstanding_packets, want.final_outstanding_packets);
  EXPECT_EQ(got.unencodable_deltas, want.unencodable_deltas);
  EXPECT_EQ(got.run_ended, want.run_ended);
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    expect_same_violation(got.samples[i], want.samples[i], i);
  }
}

struct TeedRun {
  ConsistencyReport report;  ///< the production report (equal to the reference)
  MpRunResult result;
  bool corrupted = false;
  GridPoint corrupted_cell;
  ProcId corrupted_owner = -1;
};

/// Runs `config` through `run` with both checkers teed onto it and asserts
/// their reports are identical field by field.
TeedRun run_teed(std::int32_t checkpoint_period, MpConfig config,
                 const std::function<MpRunResult(const MpConfig&)>& run,
                 Corruption corruption = Corruption::kNone,
                 std::int64_t corrupt_at = 0) {
  ConsistencyOptions options;
  options.checkpoint_period = checkpoint_period;
  ViewConsistencyChecker production(options);
  ReferenceConsistencyChecker reference(options);
  TeeObserver tee(production, reference);
  tee.corruption = corruption;
  tee.corrupt_at = corrupt_at;
  config.observer = &tee;
  TeedRun out;
  out.result = run(config);
  EXPECT_TRUE(production.report().run_ended);
  EXPECT_GT(production.report().cells_checked, 0);
  expect_same_report(production.report(), reference.report());
  out.report = production.report();
  out.corrupted = tee.corrupted;
  out.corrupted_cell = tee.corrupted_cell;
  out.corrupted_owner = tee.corrupted_owner;
  return out;
}

/// A run on the 24-wire seeded circuit at `procs` processors.
std::function<MpRunResult(const MpConfig&)> on_seeded(std::int32_t procs) {
  return [procs](const MpConfig& config) {
    return run_message_passing(test::make_seeded_circuit(), procs, config);
  };
}

MpConfig sender_config() {
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 2);
  return config;
}

TEST(ConsistencyDifferential, FaultFreeSender) {
  const TeedRun run = run_teed(1, sender_config(), on_seeded(4));
  EXPECT_TRUE(run.report.converged());
  EXPECT_GT(run.report.checkpoints, 1);
}

TEST(ConsistencyDifferential, DroppedDeltas) {
  FaultPlan plan;
  plan.drop_rate = 0.25;
  plan.packet_types = {kMsgSendRmtData};
  MpConfig config = sender_config();
  config.faults = &plan;
  const TeedRun run = run_teed(1, config, on_seeded(4));
  EXPECT_GT(run.result.faults.dropped, 0u);
  EXPECT_FALSE(run.report.converged());
}

TEST(ConsistencyDifferential, DuplicatedDeltas) {
  FaultPlan plan;
  plan.dup_rate = 0.5;
  plan.packet_types = {kMsgSendRmtData};
  MpConfig config = sender_config();
  config.faults = &plan;
  const TeedRun run = run_teed(1, config, on_seeded(4));
  EXPECT_GT(run.result.faults.duplicated, 0u);
  EXPECT_GT(run.report.unmatched_applies, 0);
  EXPECT_FALSE(run.report.samples.empty());
}

/// Tiled views and tiled delta arrays, per-tile batched update packets.
TEST(ConsistencyDifferential, ShardedBatched16p) {
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 10);
  config.shard.batch_updates = true;
  config.shard.tile = TileDims{2, 64};
  const Circuit bnre = make_bnre_like();
  const TeedRun run = run_teed(8, config, [&bnre](const MpConfig& c) {
    return run_message_passing(bnre, 16, c);
  });
  EXPECT_TRUE(run.report.converged());
}

/// The checked-faults benchmark configuration at 300 wires: fat tree, M/D/1
/// links, reliable transport recovering 2% drops, for both of its schedules.
TEST(ConsistencyDifferential, CheckedFaultsConfiguration) {
  const Circuit circuit = make_scale_circuit(300, 0x5CA1EULL);
  const Partition partition(circuit.channels(), circuit.grids(),
                            MeshShape::for_procs(16));
  const Assignment assignment =
      make_assignment(circuit, partition, AssignMethod::kThreshold1000);
  FaultPlan plan;
  plan.drop_rate = 0.02;
  MpConfig base;
  base.edges = Topology::Edges::kFatTree;
  base.fat_tree_arity = 2;
  base.link_cost.kind = LinkCostModelKind::kMd1;
  base.transport.enabled = true;
  base.faults = &plan;
  std::uint64_t dropped = 0;
  for (const UpdateSchedule& schedule :
       {UpdateSchedule::sender(2, 1), UpdateSchedule::receiver(1, 30, true)}) {
    MpConfig config = base;
    config.schedule = schedule;
    const TeedRun run = run_teed(16, config, [&](const MpConfig& c) {
      return run_message_passing(circuit, partition, assignment, c);
    });
    dropped += run.result.faults.dropped;
    EXPECT_TRUE(run.report.converged());
  }
  // Drops did happen, and the transport recovered every one of them.
  EXPECT_GT(dropped, 0u);
}

TEST(ConsistencyDifferential, DynamicLocalityGrants) {
  MpConfig config = sender_config();
  config.assignment_mode = WireAssignmentMode::kDynamicInterrupt;
  config.dynamic.policy = GrantPolicy::kLocality;
  config.dynamic.grant_batch = 4;
  const TeedRun run = run_teed(1, config, on_seeded(4));
  EXPECT_GT(run.result.grants_issued, 0);
  EXPECT_TRUE(run.report.converged());
}

/// One corruption, then the first violation: both checkers (already equal,
/// per run_teed) must flag the corrupted cell at the first checkpoint at or
/// after the corruption.
void expect_caught(Corruption corruption, std::int32_t period) {
  constexpr std::int64_t kCorruptAt = 100;
  const Circuit bnre = make_bnre_like();
  const TeedRun run = run_teed(
      period, sender_config(),
      [&bnre](const MpConfig& c) { return run_message_passing(bnre, 4, c); },
      corruption, kCorruptAt);
  ASSERT_TRUE(run.corrupted);
  ASSERT_GT(run.report.violations, 0);
  ASSERT_FALSE(run.report.samples.empty());
  const ConsistencyViolation& first = run.report.samples.front();
  const std::int64_t expected_checkpoint =
      (kCorruptAt + period - 1) / period * period;
  EXPECT_EQ(first.checkpoint, expected_checkpoint);
  EXPECT_EQ(first.cell, run.corrupted_cell);
  EXPECT_EQ(first.owner, run.corrupted_owner);
  EXPECT_EQ(first.accounted - first.truth, kCorruptBy);
}

TEST(ConsistencyMutation, OwnerViewInsideLastPacket) {
  for (std::int32_t period : {1, 64}) {
    SCOPED_TRACE(period);
    expect_caught(Corruption::kViewInsideLastPacket, period);
  }
}

TEST(ConsistencyMutation, OwnerViewOutsideLastPacket) {
  for (std::int32_t period : {1, 64}) {
    SCOPED_TRACE(period);
    expect_caught(Corruption::kViewOutsideLastPacket, period);
  }
}

TEST(ConsistencyMutation, RemoteDeltaCell) {
  for (std::int32_t period : {1, 64}) {
    SCOPED_TRACE(period);
    expect_caught(Corruption::kRemoteDelta, period);
  }
}

/// Deltas the §4.3.1 byte model cannot carry are counted once each and make
/// the run inconsistent; values at the int8 limits are fine. The run view is
/// one region over a single channel wide enough for an x of 32768.
TEST(ConsistencyRanges, UnencodableDeltasCounted) {
  constexpr std::int32_t kGrids = 32769;
  const Partition partition(1, kGrids, MeshShape::for_procs(1));
  const CostArray truth(1, kGrids);
  MpRunView run;
  run.partition = &partition;
  run.truth = &truth;
  run.nodes = {nullptr};
  ViewConsistencyChecker checker;
  checker.on_run_start(run);

  const Rect cell = Rect::of(0, 0, 5, 5);
  const std::int32_t in_range[] = {127, -128};
  for (const std::int32_t v : in_range) {
    checker.on_delta_sent(0, 0, cell, std::span(&v, 1));
  }
  EXPECT_EQ(checker.report().unencodable_deltas, 0);
  EXPECT_TRUE(checker.report().consistent());

  const std::int32_t out_of_range[] = {128, -129};
  for (const std::int32_t v : out_of_range) {
    checker.on_delta_sent(0, 0, cell, std::span(&v, 1));
  }
  EXPECT_EQ(checker.report().unencodable_deltas, 2);
  const std::int32_t one = 1;
  checker.on_delta_sent(0, 0, Rect::of(0, 0, 32768, 32768), std::span(&one, 1));
  EXPECT_EQ(checker.report().unencodable_deltas, 3);
  EXPECT_EQ(checker.report().deltas_sent, 5);
  EXPECT_EQ(checker.report().violations, 0);
  EXPECT_EQ(checker.report().unmatched_applies, 0);
  EXPECT_FALSE(checker.report().consistent());
}

TEST(ConsistencyOptions, NegativeCheckpointPeriodRejected) {
  ConsistencyOptions options;
  options.checkpoint_period = -3;
  try {
    ViewConsistencyChecker checker(options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("checkpoint_period"), std::string::npos) << what;
    EXPECT_NE(what.find("-3"), std::string::npos) << what;
  }
  options.checkpoint_period = 0;
  EXPECT_NO_THROW(ViewConsistencyChecker{options});
}

}  // namespace
}  // namespace locus
