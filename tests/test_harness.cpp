// Tests for the experiment harness: every experiment function runs on a
// small configuration and produces a well-formed table; paper reference
// data is internally consistent.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "harness/experiments.hpp"
#include "harness/paper_data.hpp"

namespace locus {
namespace {

/// Small, fast configuration: 4 processors on the tiny circuit.
ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.procs = 4;
  return config;
}

class HarnessTest : public ::testing::Test {
 protected:
  HarnessTest() : tiny_(make_tiny_test_circuit()), tiny2_(make_tiny_test_circuit(11)) {}
  Circuit tiny_;
  Circuit tiny2_;
};

TEST_F(HarnessTest, Table1Produces12Rows) {
  Table t = run_table1_sender_initiated(tiny_, tiny_config());
  EXPECT_EQ(t.row_count(), 12u);
  EXPECT_NE(t.render().find("SendRmt"), std::string::npos);
}

TEST_F(HarnessTest, Table2Produces9Rows) {
  Table t = run_table2_receiver_initiated(tiny_, tiny_config());
  EXPECT_EQ(t.row_count(), 9u);
}

TEST_F(HarnessTest, BlockingTableHasSlowdownColumn) {
  Table t = run_sec513_blocking(tiny_, tiny_config());
  EXPECT_GT(t.row_count(), 0u);
  EXPECT_NE(t.render().find("slowdown"), std::string::npos);
}

TEST_F(HarnessTest, MixedTableHasThreeSchedules) {
  Table t = run_sec513_mixed(tiny_, tiny_config());
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_NE(t.render().find("mixed"), std::string::npos);
}

TEST_F(HarnessTest, Table3CoversFourLineSizes) {
  Table3Result r = run_table3_line_size(tiny_, tiny_config());
  EXPECT_EQ(r.table.row_count(), 4u);
  EXPECT_EQ(r.breakdown.row_count(), 4u);
  EXPECT_GT(r.write_fraction_8b, 0.0);
  EXPECT_LE(r.write_fraction_8b, 1.0);
}

TEST_F(HarnessTest, ComparisonTableHasThreeApproaches) {
  Table t = run_sec52_comparison(tiny_, tiny_config());
  EXPECT_EQ(t.row_count(), 3u);
}

TEST_F(HarnessTest, LocalityTablesCoverBothCircuits) {
  Table mp = run_table4_locality_mp(tiny_, tiny2_, tiny_config());
  EXPECT_EQ(mp.row_count(), 8u);
  Table shm = run_table5_locality_shm(tiny_, tiny2_, tiny_config());
  EXPECT_EQ(shm.row_count(), 8u);
}

TEST_F(HarnessTest, ReceiverLocalityTableComputesDrop) {
  Table t = run_table4_receiver_locality(tiny_, tiny_config());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_NE(t.render().find("%"), std::string::npos);
}

TEST_F(HarnessTest, LocalityMeasureTableHasSixRows) {
  Table t = run_locality_measure(tiny_, tiny2_, tiny_config());
  EXPECT_EQ(t.row_count(), 6u);
}

TEST_F(HarnessTest, ScalingTableCoversPaperProcCounts) {
  Table t = run_table6_scaling(tiny_, tiny_config());
  EXPECT_EQ(t.row_count(), 4u);
}

TEST_F(HarnessTest, SpeedupTableEightRows) {
  Table t = run_speedup(tiny_, tiny2_, tiny_config());
  EXPECT_EQ(t.row_count(), 8u);
}

TEST_F(HarnessTest, AblationsRun) {
  EXPECT_EQ(run_ablation_packet_structure(tiny_, tiny_config()).row_count(), 3u);
  // 4 protocols x 2 line sizes.
  EXPECT_EQ(run_ablation_protocols(tiny_, tiny_config()).row_count(), 8u);
  // mesh, torus, hypercube (4 = 2^2), ring.
  EXPECT_EQ(run_ablation_topology(tiny_, tiny_config()).row_count(), 4u);
  EXPECT_EQ(run_ablation_dynamic_assignment(tiny_, tiny_config()).row_count(), 3u);
}

TEST_F(HarnessTest, ExtensionTablesRun) {
  Table hier = run_hierarchical_shm(tiny_, tiny_config());
  EXPECT_EQ(hier.row_count(), 4u);
  EXPECT_NE(hier.render().find("remote refs"), std::string::npos);
  Table overhead = run_overhead_breakdown(tiny_, tiny_config());
  EXPECT_EQ(overhead.row_count(), 6u);
  EXPECT_NE(overhead.render().find("msg fraction"), std::string::npos);
  EXPECT_EQ(run_view_staleness(tiny_, tiny_config()).row_count(), 7u);
  EXPECT_EQ(run_mp_iteration_sweep(tiny_, tiny_config()).row_count(), 4u);
}

TEST_F(HarnessTest, CsvRendersForAllTables) {
  Table t = run_sec513_mixed(tiny_, tiny_config());
  std::string csv = t.render_csv();
  EXPECT_NE(csv.find("schedule,"), std::string::npos);
  // header + 3 rows = 4 lines
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(HarnessHelpers, AssignMethodNamesAreStable) {
  EXPECT_STREQ(assign_method_name(AssignMethod::kRoundRobin), "round robin");
  EXPECT_STREQ(assign_method_name(AssignMethod::kThreshold30), "tc30");
  EXPECT_STREQ(assign_method_name(AssignMethod::kThreshold1000), "tc1000");
  EXPECT_STREQ(assign_method_name(AssignMethod::kThresholdInf), "inf");
}

TEST(HarnessHelpers, MakeAssignmentDispatches) {
  Circuit c = make_tiny_test_circuit();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(4));
  for (AssignMethod m : {AssignMethod::kRoundRobin, AssignMethod::kThreshold30,
                         AssignMethod::kThreshold1000, AssignMethod::kThresholdInf}) {
    EXPECT_TRUE(assignment_is_valid(make_assignment(c, part, m), c));
  }
}

std::vector<std::string> section_titles(
    const std::vector<const Experiment*>& experiments) {
  std::vector<std::string> titles;
  for (const Experiment* experiment : experiments) {
    for (const ExperimentStep& step : experiment->steps) {
      titles.insert(titles.end(), step.titles.begin(), step.titles.end());
    }
  }
  return titles;
}

TEST(ExperimentCatalog, NamesAreUnique) {
  std::set<std::string> names;
  for (const Experiment& experiment : experiment_catalog()) {
    EXPECT_TRUE(names.insert(experiment.name).second) << experiment.name;
  }
  EXPECT_EQ(names.size(), 22u);
}

TEST(ExperimentCatalog, SectionTitlesFollowTheReport) {
  const std::vector<std::string> report = {
      "Table 1 — sender initiated updates",
      "Table 2 — non-blocking receiver initiated updates",
      "Section 5.1.3 — blocking vs non-blocking",
      "Section 5.1.3 — mixed schedules",
      "Table 3 — shm traffic vs cache line size",
      "Table 3 — traffic breakdown by cause",
      "Section 5.2 — MP vs SHM",
      "Table 4 — locality, message passing",
      "Section 5.3.1 — receiver initiated locality traffic",
      "Table 5 — locality, shared memory",
      "Section 5.3.3 — locality measure",
      "Table 6 — processor scaling",
      "Section 5.4 — speedup",
      "Section 5.1.1 — message software overhead",
      "Ablation — packet structure",
      "Ablation — coherence protocols",
      "Ablation — topology",
      "Ablation — dynamic wire distribution",
      "Ablation — router design choices",
      "Section 3 — iteration convergence",
      "Ablation — request lookahead",
      "Ablation — ThresholdCost sweep",
      "Extension — hierarchical shm / bus occupancy",
      "Extension — view staleness per schedule",
      "Ablation — finite caches (footnote 3)",
      "Extension — scaling to 64 processors",
      "Extension — MP iteration sweep",
      "Robustness — traffic hierarchy across circuit seeds",
  };
  EXPECT_EQ(section_titles(select_experiments("")), report);
}

TEST(ExperimentCatalog, SelectsNamedEntriesInCatalogOrder) {
  const std::vector<const Experiment*> selected =
      select_experiments("scaling_large,table3_cache_line_size");
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0]->name, "table3_cache_line_size");
  EXPECT_EQ(selected[1]->name, "scaling_large");
  const std::vector<std::string> want = {
      "Table 3 — shm traffic vs cache line size",
      "Table 3 — traffic breakdown by cause",
      "Extension — scaling to 64 processors",
      "Extension — MP iteration sweep",
  };
  EXPECT_EQ(section_titles(selected), want);
}

TEST(ExperimentCatalog, RejectsUnknownName) {
  struct Case {
    const char* names;
    const char* unknown;
  };
  for (const Case& c : {Case{"nope", "nope"},
                        Case{"table1_sender_initiated,nope", "nope"},
                        Case{"table1", "table1"},
                        Case{"table1_sender_initiated,", ""}}) {
    try {
      select_experiments(c.names);
      ADD_FAILURE() << "accepted " << c.names;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("'" + std::string(c.unknown) + "'"), std::string::npos)
          << message;
      EXPECT_NE(message.find("table1_sender_initiated"), std::string::npos);
    }
  }
}

TEST(PaperData, TablesInternallyConsistent) {
  // Table 1: traffic decreases as SendLocData period grows within a group.
  for (std::size_t i = 1; i < paper::kTable1.size(); ++i) {
    if (paper::kTable1[i].send_rmt == paper::kTable1[i - 1].send_rmt) {
      EXPECT_LT(paper::kTable1[i].mbytes, paper::kTable1[i - 1].mbytes);
    }
  }
  // Table 2: receiver traffic is below the sender traffic at matched rows.
  EXPECT_LT(paper::kTable2.front().mbytes, paper::kTable1.front().mbytes);
  // Table 3: traffic grows with line size.
  for (std::size_t i = 1; i < paper::kTable3.size(); ++i) {
    EXPECT_GT(paper::kTable3[i].mbytes, paper::kTable3[i - 1].mbytes);
  }
  // Table 6: execution time falls as processors increase.
  for (std::size_t i = 1; i < paper::kTable6.size(); ++i) {
    EXPECT_LT(paper::kTable6[i].seconds, paper::kTable6[i - 1].seconds);
  }
}

}  // namespace
}  // namespace locus
