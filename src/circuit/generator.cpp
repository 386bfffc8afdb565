#include "circuit/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace locus {

namespace {

struct Cluster {
  std::int32_t x;
  std::int32_t row;
};

std::int32_t clamp_i32(std::int64_t v, std::int32_t lo, std::int32_t hi) {
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(v, lo, hi));
}

/// Draws a pin count: 2 with p=.55, 3 with p=.25, then a tail up to max_pins.
std::int32_t draw_pin_count(Rng& rng, std::int32_t max_pins) {
  double u = rng.uniform();
  if (u < 0.55 || max_pins <= 2) return 2;
  if (u < 0.80 || max_pins <= 3) return 3;
  if (u < 0.90 || max_pins <= 4) return 4;
  return clamp_i32(5 + static_cast<std::int32_t>(rng.bounded(
                           static_cast<std::uint64_t>(max_pins - 4))),
                   2, max_pins);
}

}  // namespace

Circuit generate_circuit(const GeneratorParams& params) {
  LOCUS_ASSERT(params.channels >= 2);
  LOCUS_ASSERT(params.grids >= 8);
  LOCUS_ASSERT(params.num_wires >= 1);
  LOCUS_ASSERT(params.clusters >= 1);

  Rng rng(params.seed);
  const std::int32_t rows = params.channels - 1;

  // Place cluster anchors on a jittered grid so locality is spatially spread
  // but non-uniform: some clusters attract more wires than others, which is
  // what creates the load imbalance under fully-local assignment (§5.3.3).
  std::vector<Cluster> clusters;
  clusters.reserve(static_cast<std::size_t>(params.clusters));
  for (std::int32_t c = 0; c < params.clusters; ++c) {
    clusters.push_back(Cluster{
        static_cast<std::int32_t>(rng.bounded(static_cast<std::uint64_t>(params.grids))),
        static_cast<std::int32_t>(rng.bounded(static_cast<std::uint64_t>(rows)))});
  }
  // Zipf-ish cluster popularity: cluster k chosen with weight 1/(k+1).
  std::vector<double> cum_weight(clusters.size());
  double total = 0;
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cum_weight[k] = total;
  }

  auto pick_cluster = [&]() -> const Cluster& {
    double u = rng.uniform() * total;
    auto it = std::lower_bound(cum_weight.begin(), cum_weight.end(), u);
    std::size_t k = static_cast<std::size_t>(it - cum_weight.begin());
    if (k >= clusters.size()) k = clusters.size() - 1;
    return clusters[k];
  };

  std::vector<Wire> wires;
  wires.reserve(static_cast<std::size_t>(params.num_wires));
  for (std::int32_t w = 0; w < params.num_wires; ++w) {
    Wire wire;
    const bool global = rng.chance(params.global_fraction);
    const std::int32_t pin_count = global
        ? clamp_i32(3 + static_cast<std::int32_t>(rng.bounded(
                            static_cast<std::uint64_t>(params.max_pins - 2))),
                    2, params.max_pins)
        : draw_pin_count(rng, params.max_pins);

    if (global) {
      // Global wire: pins spread over a wide x-span and multiple rows.
      std::int32_t span = clamp_i32(
          params.grids / 3 +
              static_cast<std::int32_t>(rng.bounded(
                  static_cast<std::uint64_t>(2 * params.grids / 3))),
          params.grids / 4, params.grids - 1);
      std::int32_t x0 = static_cast<std::int32_t>(
          rng.bounded(static_cast<std::uint64_t>(params.grids - span)));
      for (std::int32_t p = 0; p < pin_count; ++p) {
        Pin pin;
        pin.x = clamp_i32(
            x0 + static_cast<std::int32_t>(rng.bounded(
                     static_cast<std::uint64_t>(span) + 1)),
            0, params.grids - 1);
        pin.row = static_cast<std::int32_t>(
            rng.bounded(static_cast<std::uint64_t>(rows)));
        wire.pins.push_back(pin);
      }
    } else {
      // Local wire: pins scatter geometrically around a cluster anchor.
      const Cluster& anchor = pick_cluster();
      for (std::int32_t p = 0; p < pin_count; ++p) {
        Pin pin;
        double spread = params.local_span_mean / 2.0;
        std::int32_t dx = rng.geometric(1.0 / (1.0 + spread), params.grids - 1);
        if (rng.chance(0.5)) dx = -dx;
        pin.x = clamp_i32(anchor.x + dx, 0, params.grids - 1);
        std::int32_t dr = rng.geometric(0.6, rows - 1);
        if (rng.chance(0.5)) dr = -dr;
        pin.row = clamp_i32(anchor.row + dr, 0, rows - 1);
        wire.pins.push_back(pin);
      }
    }

    // Degenerate wires (all pins at the same grid) still need two distinct
    // pin sites for the router's segment decomposition to do something.
    bool all_same = true;
    for (const Pin& p : wire.pins) {
      if (p.x != wire.pins.front().x || p.row != wire.pins.front().row) {
        all_same = false;
        break;
      }
    }
    if (all_same) {
      wire.pins.back().x =
          clamp_i32(wire.pins.back().x + 1 < params.grids ? wire.pins.back().x + 1
                                                          : wire.pins.back().x - 1,
                    0, params.grids - 1);
    }
    wires.push_back(std::move(wire));
  }

  return Circuit(params.name, params.channels, params.grids, std::move(wires));
}

Circuit make_bnre_like() {
  GeneratorParams p;
  p.name = "bnrE-like";
  p.channels = 10;
  p.grids = 341;
  p.num_wires = 420;
  p.seed = 0xB9E5EED5ULL;
  p.clusters = 24;
  p.global_fraction = 0.12;
  p.local_span_mean = 18.0;
  return generate_circuit(p);
}

Circuit make_mdc_like() {
  GeneratorParams p;
  p.name = "MDC-like";
  p.channels = 12;
  p.grids = 386;
  p.num_wires = 573;
  p.seed = 0x4D4443ULL;  // "MDC"
  p.clusters = 30;
  // The paper measured better locality for MDC (0.91 vs 1.21 mean owner
  // distance); shorter local spans reproduce that ordering.
  p.global_fraction = 0.10;
  p.local_span_mean = 14.0;
  return generate_circuit(p);
}

Circuit make_industrial_like() {
  GeneratorParams p;
  p.name = "industrial-like";
  p.channels = 18;
  p.grids = 900;
  p.num_wires = 2000;
  p.seed = 0x1D05781AULL;
  p.clusters = 64;
  p.global_fraction = 0.10;
  p.local_span_mean = 20.0;
  return generate_circuit(p);
}

Circuit make_tiny_test_circuit(std::uint64_t seed) {
  GeneratorParams p;
  p.name = "tiny";
  p.channels = 4;
  p.grids = 32;
  p.num_wires = 24;
  p.seed = seed;
  p.clusters = 4;
  p.local_span_mean = 6.0;
  p.max_pins = 4;
  return generate_circuit(p);
}

Circuit make_named_circuit(const std::string& name) {
  if (name == "bnre") return make_bnre_like();
  if (name == "mdc") return make_mdc_like();
  if (name == "tiny") return make_tiny_test_circuit();
  throw std::invalid_argument("unknown circuit '" + name + "' (valid: bnre | mdc | tiny)");
}

}  // namespace locus
