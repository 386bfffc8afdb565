// Route legality: independent re-verification that a committed routing is a
// valid solution for its circuit. Used by the differential oracle on every
// implementation's output — the implementations share the router core, so
// the checks here deliberately re-derive everything from the raw geometry
// instead of trusting WireRouter's invariants.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "route/router.hpp"

namespace locus {

struct LegalityIssue {
  WireId wire = -1;
  const char* what = "";  ///< a string literal
};

struct LegalityReport {
  std::int64_t wires_checked = 0;
  std::int64_t cells_checked = 0;
  std::vector<LegalityIssue> issues;

  bool legal() const { return issues.empty(); }
};

/// Checks every wire's committed route:
///   * the route exists and its id matches its slot;
///   * each connection is a connected chain of axis-aligned segments inside
///     the circuit's cost-array bounds;
///   * every committed run has x_lo <= x_hi and lies inside those bounds
///     (`cells_checked` sums the run lengths);
///   * `runs` is exactly collect_row_runs() of the connections: their union
///     as sorted, maximal, disjoint row runs;
///   * every pin is reached in its channel above or below at the pin's x.
/// A malformed route is reported as an issue, never asserted on.
LegalityReport check_route_legality(const Circuit& circuit,
                                    std::span<const WireRoute> routes);

}  // namespace locus
