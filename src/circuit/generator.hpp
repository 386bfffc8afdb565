// Synthetic standard cell circuit generation.
//
// The paper's benchmark circuits — bnrE (Bell-Northern Research) and MDC
// (U. Toronto Microelectronic Development Centre) — are proprietary; only
// their published dimensions survive. `make_bnre_like()` / `make_mdc_like()`
// generate deterministic synthetic circuits with those dimensions and a
// realistic standard-cell character: most wires are short and locally
// clustered (which is what the locality experiments exploit) while a tail of
// long, multi-pin wires spans several owned regions (which is what limits
// locality per paper §5.3.3 and what the ThresholdCost heuristic sends to
// the load balancer).
#pragma once

#include <cstdint>
#include <string>

#include "circuit/circuit.hpp"

namespace locus {

struct GeneratorParams {
  std::string name = "synthetic";
  std::int32_t channels = 10;
  std::int32_t grids = 341;
  std::int32_t num_wires = 420;
  std::uint64_t seed = 0xB9E5EED5ULL;

  /// Fraction of wires drawn as long "global" wires (wide x-span).
  double global_fraction = 0.12;
  /// Mean x-extent of a local wire, in grids.
  double local_span_mean = 18.0;
  /// Number of placement clusters local wires are anchored to.
  std::int32_t clusters = 24;
  /// Maximum pins on a wire (distribution is 2-heavy).
  std::int32_t max_pins = 8;
};

/// Generates a deterministic synthetic circuit from the parameters.
/// Same params (including seed) always produce the identical netlist.
Circuit generate_circuit(const GeneratorParams& params);

/// bnrE-like: 420 wires, 10 channels x 341 routing grids (paper §2.3).
Circuit make_bnre_like();

/// MDC-like: 573 wires, 12 channels x 386 routing grids (paper §2.3).
Circuit make_mdc_like();

/// A small circuit for unit tests: deterministic, quick to route.
Circuit make_tiny_test_circuit(std::uint64_t seed = 7);

/// A larger synthetic design than the paper's benchmarks (2000 wires,
/// 18 channels x 900 grids) for scaling studies past 16 processors.
Circuit make_industrial_like();

/// The circuit a command line names: "bnre", "mdc" or "tiny" (seed 7).
/// Throws std::invalid_argument naming the valid choices for any other name.
Circuit make_named_circuit(const std::string& name);

}  // namespace locus
