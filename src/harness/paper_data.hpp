// The paper's reported numbers, embedded so every table prints measured
// values next to the published ones and EXPERIMENTS.md can be regenerated
// mechanically. Absolute values are not expected to match (synthetic
// circuits, analytic time model); orderings and ratios are.
#pragma once

#include <array>
#include <cstdint>

#include "harness/experiments.hpp"

namespace locus::paper {

/// Table 1 — sender initiated updates, bnrE, 16 procs.
struct SenderRow {
  std::int32_t send_rmt;
  std::int32_t send_loc;
  std::int32_t ckt_height;
  std::int32_t occupancy;
  double mbytes;
  double seconds;
};
inline constexpr std::array<SenderRow, 12> kTable1 = {{
    {2, 1, 142, 426109, 0.862, 1.893},
    {2, 5, 143, 428558, 0.222, 1.515},
    {2, 10, 141, 429589, 0.140, 1.445},
    {2, 20, 145, 432360, 0.101, 1.426},
    {5, 1, 144, 425576, 0.859, 1.668},
    {5, 5, 143, 430046, 0.212, 1.306},
    {5, 10, 146, 430580, 0.133, 1.260},
    {5, 20, 145, 431366, 0.094, 1.240},
    {10, 1, 142, 426706, 0.840, 1.553},
    {10, 5, 143, 429423, 0.208, 1.282},
    {10, 10, 146, 431662, 0.128, 1.243},
    {10, 20, 145, 432169, 0.087, 1.219},
}};

/// Table 2 — non-blocking receiver initiated updates, bnrE, 16 procs.
struct ReceiverRow {
  std::int32_t req_loc;
  std::int32_t req_rmt;
  std::int32_t ckt_height;
  std::int32_t occupancy;
  double mbytes;
  double seconds;
};
inline constexpr std::array<ReceiverRow, 9> kTable2 = {{
    {1, 5, 144, 430686, 0.130, 1.166},
    {1, 10, 150, 436496, 0.056, 1.159},
    {1, 30, 151, 437956, 0.009, 1.099},
    {2, 5, 143, 431936, 0.112, 1.156},
    {2, 10, 149, 437088, 0.045, 1.126},
    {2, 30, 151, 437956, 0.009, 1.113},
    {10, 5, 142, 430868, 0.088, 1.133},
    {10, 10, 149, 437797, 0.039, 1.135},
    {10, 30, 151, 437956, 0.009, 1.097},
}};

/// §5.1.3 — the mixed schedule the paper quotes.
inline constexpr std::int32_t kMixedSendLoc = 5;
inline constexpr std::int32_t kMixedSendRmt = 2;
inline constexpr std::int32_t kMixedReqLoc = 1;
inline constexpr std::int32_t kMixedReqRmt = 5;
inline constexpr std::int32_t kMixedOccupancy = 424337;
inline constexpr double kMixedMbytes = 0.311;
/// Blocking strategies: execution time up to 75% larger than non-blocking.
inline constexpr double kBlockingMaxSlowdown = 0.75;

/// Table 3 — shm traffic vs cache line size, bnrE.
struct LineSizeRow {
  std::int32_t line_size;
  double mbytes;
};
inline constexpr std::array<LineSizeRow, 4> kTable3 = {{
    {4, 2.15},
    {8, 3.73},
    {16, 6.87},
    {32, 13.5},
}};
/// §5.2: over 80% of the shm bytes are caused by writes.
inline constexpr double kWriteFractionFloor = 0.80;
/// §5.2: shm circuit height for bnrE (about 8% better than sender MP).
inline constexpr std::int32_t kShmBnreHeight = 131;

/// Table 4 — effect of locality, message passing (sender initiated).
struct LocalityMpRow {
  const char* circuit;
  AssignMethod method;
  std::int32_t ckt_height;
  double mbytes;
  double seconds;
};
inline constexpr std::array<LocalityMpRow, 8> kTable4 = {{
    {"bnrE", AssignMethod::kRoundRobin, 147, 0.156, 1.478},
    {"bnrE", AssignMethod::kThreshold30, 141, 0.153, 1.392},
    {"bnrE", AssignMethod::kThreshold1000, 141, 0.140, 1.445},
    {"bnrE", AssignMethod::kThresholdInf, 140, 0.139, 2.468},
    {"MDC", AssignMethod::kRoundRobin, 150, 0.242, 2.181},
    {"MDC", AssignMethod::kThreshold30, 146, 0.232, 1.768},
    {"MDC", AssignMethod::kThreshold1000, 147, 0.217, 1.866},
    {"MDC", AssignMethod::kThresholdInf, 146, 0.220, 3.684},
}};
/// §5.3.1: receiver-initiated traffic drops up to 63% going local.
inline constexpr double kReceiverLocalityTrafficDrop = 0.63;

/// Table 5 — effect of locality, shared memory (8-byte lines).
struct LocalityShmRow {
  const char* circuit;
  AssignMethod method;
  std::int32_t ckt_height;
  double mbytes;
};
inline constexpr std::array<LocalityShmRow, 8> kTable5 = {{
    {"bnrE", AssignMethod::kRoundRobin, 139, 3.960},
    {"bnrE", AssignMethod::kThreshold30, 134, 3.770},
    {"bnrE", AssignMethod::kThreshold1000, 131, 3.730},
    {"bnrE", AssignMethod::kThresholdInf, 139, 3.730},
    {"MDC", AssignMethod::kRoundRobin, 144, 4.833},
    {"MDC", AssignMethod::kThreshold30, 138, 4.625},
    {"MDC", AssignMethod::kThreshold1000, 143, 4.600},
    {"MDC", AssignMethod::kThresholdInf, 143, 4.687},
}};

/// §5.3.3 — locality measure under the most local assignment.
inline constexpr double kLocalityMeasureBnre = 1.21;
inline constexpr double kLocalityMeasureMdc = 0.91;

/// Table 6 — effect of number of processors (sender initiated, bnrE).
struct ScalingRow {
  std::int32_t procs;
  std::int32_t ckt_height;
  std::int32_t occupancy;
  double mbytes;
  double seconds;
};
inline constexpr std::array<ScalingRow, 4> kTable6 = {{
    {2, 131, 415142, 0.245, 8.438},
    {4, 0, 0, 0.263, 4.378},  // height/occupancy for 4 procs illegible in scans
    {9, 143, 425426, 0.178, 2.184},
    {16, 141, 429589, 0.140, 1.445},
}};
/// §5.4 — speedup at 16 processors (relative to 2 procs, x2).
inline constexpr double kSpeedup16Bnre = 12.0;
inline constexpr double kSpeedup16Mdc = 12.8;

}  // namespace locus::paper
