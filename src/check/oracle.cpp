#include "check/oracle.hpp"

#include <optional>
#include <string>
#include <utility>

#include "harness/sim_pool.hpp"
#include "msg/driver.hpp"
#include "route/sequential.hpp"
#include "shm/shm_router.hpp"
#include "support/assert.hpp"

namespace locus {

namespace {

bool in_band(std::int64_t value, std::int64_t base, double rel, std::int64_t abs) {
  return static_cast<double>(value) <=
         static_cast<double>(base) * (1.0 + rel) + static_cast<double>(abs);
}

void apply_bands(OracleVariant& variant, std::int64_t seq_height,
                 std::int64_t seq_occupancy) {
  variant.height_in_band = in_band(variant.circuit_height, seq_height,
                                   kOracleHeightRel, kOracleHeightAbs);
  variant.occupancy_in_band = in_band(variant.occupancy_factor, seq_occupancy,
                                      kOracleOccupancyRel, kOracleOccupancyAbs);
}

}  // namespace

std::string OracleResult::describe() const {
  std::string out = "seq h=" + std::to_string(seq_height) +
                    " occ=" + std::to_string(seq_occupancy);
  for (const OracleVariant& v : variants) {
    out += " | " + v.name + (v.ok() ? " OK" : " FAIL");
    if (!v.ok()) {
      if (!v.legality.legal()) out += " illegal";
      if (!v.height_in_band) out += " height=" + std::to_string(v.circuit_height);
      if (!v.occupancy_in_band) {
        out += " occ=" + std::to_string(v.occupancy_factor);
      }
      if (!v.consistency.consistent()) {
        out += " violations=" + std::to_string(v.consistency.violations +
                                               v.consistency.unmatched_applies);
      }
      if (v.is_message_passing && !v.consistency.converged()) {
        out += " inflight=" + std::to_string(v.consistency.final_inflight_cells);
      }
    }
  }
  return out;
}

std::span<const CheckSchedule> checking_schedules() {
  static const CheckSchedule kSchedules[] = {
      {"sender(10,5)", UpdateSchedule::sender(10, 5)},
      {"receiver(5,2)", UpdateSchedule::receiver(5, 2)},
      {"receiver-blk(5,2)", UpdateSchedule::receiver(5, 2, /*blocking=*/true)},
      {"mixed", [] {
         UpdateSchedule mixed;
         mixed.send_loc_period = 10;
         mixed.send_rmt_period = 5;
         mixed.req_rmt_touches = 3;
         mixed.req_loc_requests = 2;
         return mixed;
       }()},
  };
  return kSchedules;
}

OracleResult run_differential_oracle(const Circuit& circuit,
                                     const OracleConfig& config) {
  // The engine x schedule matrix: every variant is an independent,
  // deterministic simulation, so the six runs fan out on run_indexed and
  // are collected by index. The tolerance bands depend on the sequential
  // baseline and are applied after the join.
  const std::span<const CheckSchedule> schedules = checking_schedules();

  // Job 0: the sequential reference (also the bands' baseline).
  std::optional<SequentialResult> seq;
  // Job 1: the shared memory router.
  std::optional<ShmRunResult> shm_run;
  // Jobs 2..5: the four message passing schedules, each with its own
  // view-consistency checker (the checker is per-run mutable state).
  struct MsgOutcome {
    MpRunResult run;
    ConsistencyReport report;
  };
  std::vector<MsgOutcome> msg(schedules.size());

  run_indexed(2 + schedules.size(), [&](std::size_t job) {
    if (job == 0) {
      SequentialParams seq_params;
      seq_params.iterations = config.iterations;
      seq.emplace(route_sequential(circuit, seq_params));
    } else if (job == 1) {
      ShmConfig shm;
      shm.iterations = config.iterations;
      shm.procs = config.procs;
      shm.capture_trace = false;
      shm_run.emplace(run_shared_memory(circuit, shm));
    } else {
      const std::size_t i = job - 2;
      ConsistencyOptions check_options;
      check_options.checkpoint_period = kOracleCheckpointPeriod;
      ViewConsistencyChecker checker(check_options);

      MpConfig mp;
      mp.schedule = schedules[i].schedule;
      mp.iterations = config.iterations;
      mp.faults = config.faults;
      mp.transport = config.transport;
      mp.edges = config.edges;
      mp.link_cost = config.link_cost;
      mp.observer = &checker;
      msg[i].run = run_message_passing(circuit, config.procs, mp);
      msg[i].report = checker.report();
    }
  });

  OracleResult result;
  result.seq_height = seq->circuit_height;
  result.seq_occupancy = seq->occupancy_factor;

  {
    OracleVariant variant;
    variant.name = "sequential";
    variant.circuit_height = seq->circuit_height;
    variant.occupancy_factor = seq->occupancy_factor;
    variant.legality = check_route_legality(circuit, seq->routes);
    apply_bands(variant, result.seq_height, result.seq_occupancy);
    result.variants.push_back(std::move(variant));
  }
  {
    OracleVariant variant;
    variant.name = "shm";
    variant.circuit_height = shm_run->circuit_height;
    variant.occupancy_factor = shm_run->occupancy_factor;
    variant.legality = check_route_legality(circuit, shm_run->routes);
    apply_bands(variant, result.seq_height, result.seq_occupancy);
    result.variants.push_back(std::move(variant));
  }
  for (std::size_t i = 0; i < msg.size(); ++i) {
    OracleVariant variant;
    variant.name = std::string("msg ") + schedules[i].name;
    variant.is_message_passing = true;
    variant.circuit_height = msg[i].run.circuit_height;
    variant.occupancy_factor = msg[i].run.occupancy_factor;
    variant.legality = check_route_legality(circuit, msg[i].run.routes);
    variant.consistency = msg[i].report;
    apply_bands(variant, result.seq_height, result.seq_occupancy);
    result.variants.push_back(std::move(variant));
  }
  return result;
}

}  // namespace locus
