// Tests for the experiment harness: every report table is reached through
// experiment_catalog() by entry name, as reproduce_paper reaches it, on a
// small configuration; its rendered bytes are pinned by digest; paper
// reference data is internally consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "harness/experiments.hpp"
#include "harness/paper_data.hpp"

namespace locus {
namespace {

/// Small, fast configuration: 4 processors on the tiny circuit.
constexpr ExperimentConfig kTinyConfig{.procs = 4};

const PaperCircuits& tiny_circuits() {
  static const PaperCircuits circuits{make_tiny_test_circuit(),
                                      make_tiny_test_circuit(11)};
  return circuits;
}

/// The tables of catalog entry `name`, one per step, on the tiny circuits.
std::vector<Table> entry_tables(const std::string& name) {
  std::vector<Table> tables;
  for (const ExperimentStep& step : select_experiments(name).at(0)->steps) {
    tables.push_back(step.build(tiny_circuits(), kTinyConfig));
  }
  return tables;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct RecordedStep {
  const char* title;
  std::uint64_t digest;  ///< fnv1a of Table::render() at kTinyConfig
};

/// Every step of the report in order, with the digest of its table on the
/// tiny circuits, recorded before the tables moved behind the catalog.
const RecordedStep kRecordedSteps[] = {
    {"Table 1 — sender initiated updates", 0xE276BCC380C370A8ULL},
    {"Table 2 — non-blocking receiver initiated updates", 0x1435B7E45C6F3CFFULL},
    {"Section 5.1.3 — blocking vs non-blocking", 0xD937392E2BB7E6E0ULL},
    {"Section 5.1.3 — mixed schedules", 0x076628303A997965ULL},
    {"Table 3 — shm traffic vs cache line size", 0x4B8A823F919B9726ULL},
    {"Table 3 — traffic breakdown by cause", 0x153E51F169E8DD12ULL},
    {"Section 5.2 — MP vs SHM", 0x6115208225C07468ULL},
    {"Table 4 — locality, message passing", 0xD598AEF86949C779ULL},
    {"Section 5.3.1 — receiver initiated locality traffic", 0x0459D22F9C721ED1ULL},
    {"Table 5 — locality, shared memory", 0xA988C556BFD0FB10ULL},
    {"Section 5.3.3 — locality measure", 0xABFC86897FE6180EULL},
    {"Table 6 — processor scaling", 0x3DCB2E21281BCF21ULL},
    {"Section 5.4 — speedup", 0x3D6D02A2E0D4F4D7ULL},
    {"Section 5.1.1 — message software overhead", 0x5B8456A06F4DA1AEULL},
    {"Ablation — packet structure", 0x70F9BC2548A5605AULL},
    {"Ablation — coherence protocols", 0x4A162011AABF3F83ULL},
    {"Ablation — topology", 0x5B236C513B6CD550ULL},
    {"Ablation — dynamic wire distribution", 0xD77E3D1553F527CAULL},
    {"Ablation — router design choices", 0x406931C2D7CA33EAULL},
    {"Section 3 — iteration convergence", 0xCB4ECCAFEF7CE85EULL},
    {"Ablation — request lookahead", 0x18689CDD261CC46BULL},
    {"Ablation — ThresholdCost sweep", 0x6317EE963FB71A9EULL},
    {"Extension — hierarchical shm / bus occupancy", 0x51C1D7474F397916ULL},
    {"Extension — view staleness per schedule", 0xE74CA18479DE6677ULL},
    {"Ablation — finite caches (footnote 3)", 0xF0D46D7B9B40563CULL},
    {"Extension — scaling to 64 processors", 0x4543A025A461C45DULL},
    {"Extension — MP iteration sweep", 0x5A54D54AA36E9259ULL},
    {"Robustness — traffic hierarchy across circuit seeds", 0x11085ED156978CECULL},
};

TEST(HarnessTest, Table1Produces12Rows) {
  const Table t = entry_tables("table1_sender_initiated").at(0);
  EXPECT_EQ(t.row_count(), 12u);
  EXPECT_NE(t.render().find("SendRmt"), std::string::npos);
}

TEST(HarnessTest, Table2Produces9Rows) {
  EXPECT_EQ(entry_tables("table2_receiver_initiated").at(0).row_count(), 9u);
}

TEST(HarnessTest, BlockingTableHasSlowdownColumn) {
  const Table t = entry_tables("sec513_blocking_mixed").at(0);
  EXPECT_GT(t.row_count(), 0u);
  EXPECT_NE(t.render().find("slowdown"), std::string::npos);
}

TEST(HarnessTest, MixedTableHasThreeSchedules) {
  const Table t = entry_tables("sec513_blocking_mixed").at(1);
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_NE(t.render().find("mixed"), std::string::npos);
}

TEST(HarnessTest, Table3CoversFourLineSizes) {
  const std::vector<Table> tables = entry_tables("table3_cache_line_size");
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].row_count(), 4u);
  EXPECT_EQ(tables[1].row_count(), 4u);
  // The 8-byte row's "write frac", the last CSV column, is a fraction.
  std::istringstream csv(tables[0].render_csv());
  std::string line;
  std::getline(csv, line);
  EXPECT_EQ(line.substr(line.rfind(',') + 1), "write frac");
  bool found = false;
  while (std::getline(csv, line)) {
    if (line.rfind("8,", 0) != 0) continue;
    found = true;
    const double write_fraction = std::stod(line.substr(line.rfind(',') + 1));
    EXPECT_GT(write_fraction, 0.0) << line;
    EXPECT_LE(write_fraction, 1.0) << line;
  }
  EXPECT_TRUE(found);
}

TEST(HarnessTest, ComparisonTableHasThreeApproaches) {
  EXPECT_EQ(entry_tables("sec52_mp_vs_shm").at(0).row_count(), 3u);
}

TEST(HarnessTest, LocalityTablesCoverBothCircuits) {
  EXPECT_EQ(entry_tables("table4_locality_mp").at(0).row_count(), 8u);
  EXPECT_EQ(entry_tables("table5_locality_shm").at(0).row_count(), 8u);
}

TEST(HarnessTest, ReceiverLocalityTableComputesDrop) {
  const Table t = entry_tables("table4_locality_mp").at(1);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_NE(t.render().find("%"), std::string::npos);
}

TEST(HarnessTest, LocalityMeasureTableHasSixRows) {
  EXPECT_EQ(entry_tables("locality_measure").at(0).row_count(), 6u);
}

TEST(HarnessTest, ScalingTableCoversPaperProcCounts) {
  EXPECT_EQ(entry_tables("table6_scaling").at(0).row_count(), 4u);
}

TEST(HarnessTest, SpeedupTableEightRows) {
  EXPECT_EQ(entry_tables("speedup").at(0).row_count(), 8u);
}

TEST(HarnessTest, AblationsRun) {
  EXPECT_EQ(entry_tables("ablation_packet_structure").at(0).row_count(), 3u);
  // 4 protocols x 2 line sizes.
  EXPECT_EQ(entry_tables("ablation_protocols").at(0).row_count(), 8u);
  // mesh, torus, hypercube (4 = 2^2), ring.
  EXPECT_EQ(entry_tables("ablation_topology").at(0).row_count(), 4u);
  EXPECT_EQ(entry_tables("ablation_dynamic_assignment").at(0).row_count(), 3u);
}

TEST(HarnessTest, ExtensionTablesRun) {
  const Table hier = entry_tables("hierarchical_shm").at(0);
  EXPECT_EQ(hier.row_count(), 4u);
  EXPECT_NE(hier.render().find("remote refs"), std::string::npos);
  const Table overhead = entry_tables("overhead_breakdown").at(0);
  EXPECT_EQ(overhead.row_count(), 6u);
  EXPECT_NE(overhead.render().find("msg fraction"), std::string::npos);
  EXPECT_EQ(entry_tables("view_staleness").at(0).row_count(), 7u);
  EXPECT_EQ(entry_tables("scaling_large").at(1).row_count(), 4u);
}

TEST(HarnessTest, CsvRendersForAllTables) {
  const std::string csv = entry_tables("sec513_blocking_mixed").at(1).render_csv();
  EXPECT_NE(csv.find("schedule,"), std::string::npos);
  // header + 3 rows = 4 lines
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(KnobSweeps, TablesWellFormed) {
  const std::vector<Table> router = entry_tables("ablation_router");
  EXPECT_EQ(router.at(0).row_count(), 5u);  // router variants
  EXPECT_EQ(router.at(1).row_count(), 5u);  // iteration counts
  const std::vector<Table> knobs = entry_tables("ablation_schedule_knobs");
  EXPECT_EQ(knobs.at(0).row_count(), 5u);  // request lookaheads
  EXPECT_EQ(knobs.at(1).row_count(), 8u);  // ThresholdCost values
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
    for (const ExperimentStep& step : experiment->steps) titles.push_back(step.title);
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
  std::vector<std::string> report;
  for (const RecordedStep& step : kRecordedSteps) report.emplace_back(step.title);
  EXPECT_EQ(section_titles(select_experiments("")), report);
}

TEST(ExperimentCatalog, TinyTablesMatchRecordedDigests) {
  std::size_t i = 0;
  for (const Experiment& experiment : experiment_catalog()) {
    for (const ExperimentStep& step : experiment.steps) {
      ASSERT_LT(i, std::size(kRecordedSteps)) << step.title;
      const std::string rendered = step.build(tiny_circuits(), kTinyConfig).render();
      EXPECT_EQ(step.title, kRecordedSteps[i].title);
      EXPECT_EQ(fnv1a(rendered), kRecordedSteps[i].digest)
          << step.title << "\n" << rendered;
      ++i;
    }
  }
  EXPECT_EQ(i, std::size(kRecordedSteps));
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
