#include "check/consistency.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "grid/cost_array.hpp"
#include "msg/node.hpp"
#include "support/assert.hpp"

namespace locus {

namespace {

/// Content key of a delta packet: the owner region, bbox, and values fully
/// identify what on_delta_applied will later observe.
std::string packet_key(ProcId region, const Rect& bbox,
                       std::span<const std::int32_t> values) {
  const std::int32_t header[] = {region, bbox.channel_lo, bbox.channel_hi,
                                 bbox.x_lo, bbox.x_hi};
  std::string key(sizeof(header) + values.size_bytes(), '\0');
  std::memcpy(key.data(), header, sizeof(header));
  if (!values.empty()) {
    std::memcpy(key.data() + sizeof(header), values.data(), values.size_bytes());
  }
  return key;
}

template <typename Narrow>
bool fits(std::int32_t v) {
  return v >= std::numeric_limits<Narrow>::min() &&
         v <= std::numeric_limits<Narrow>::max();
}

/// Whether the §4.3.1 delta packet can carry these fields: the header holds
/// the region id and the four bbox coordinates as int16, and each delta cell
/// is one signed byte.
bool fits_byte_model(ProcId region, const Rect& bbox,
                     std::span<const std::int32_t> values) {
  const std::int32_t header[] = {region, bbox.channel_lo, bbox.channel_hi,
                                 bbox.x_lo, bbox.x_hi};
  return std::all_of(std::begin(header), std::end(header), fits<std::int16_t>) &&
         std::all_of(values.begin(), values.end(), fits<std::int8_t>);
}

/// Adds `sign` x `values` (row-major over `bbox`) into the per-cell
/// `ledger`, laid out row-major like `grid`.
void add_to_ledger(std::vector<std::int64_t>& ledger, const CostArray& grid,
                   const Rect& bbox, std::span<const std::int32_t> values,
                   std::int64_t sign) {
  LOCUS_ASSERT(static_cast<std::int64_t>(values.size()) == bbox.area());
  LOCUS_ASSERT(grid.bounds().contains(bbox));
  const std::int64_t width = bbox.width();
  const std::int32_t* src = values.data();
  for (std::int32_t c = bbox.channel_lo; c <= bbox.channel_hi; ++c) {
    std::int64_t* row = ledger.data() + grid.index(GridPoint{c, bbox.x_lo});
    for (std::int64_t i = 0; i < width; ++i) row[i] += sign * src[i];
    src += width;
  }
}

}  // namespace

ViewConsistencyChecker::ViewConsistencyChecker(ConsistencyOptions options)
    : options_(options) {
  if (options_.checkpoint_period < 0) {
    throw std::invalid_argument(
        "ConsistencyOptions::checkpoint_period must be >= 0 (0: run end only), got " +
        std::to_string(options_.checkpoint_period));
  }
}

void ViewConsistencyChecker::on_run_start(const MpRunView& run) {
  LOCUS_ASSERT(run.partition != nullptr && run.truth != nullptr);
  LOCUS_ASSERT(static_cast<std::int32_t>(run.nodes.size()) ==
               run.partition->num_regions());
  run_ = run;
  const auto cells = static_cast<std::size_t>(run.truth->size());
  inflight_.assign(cells, 0);
  pending_.assign(cells, 0);
  outstanding_.clear();
  wires_routed_ = 0;
  report_ = ConsistencyReport{};
}

void ViewConsistencyChecker::on_delta_sent(ProcId from, ProcId region,
                                           const Rect& bbox,
                                           std::span<const std::int32_t> values) {
  ++report_.deltas_sent;
  add_to_ledger(inflight_, *run_.truth, bbox, values, +1);
  ++outstanding_[packet_key(region, bbox, values)];
  if (!fits_byte_model(region, bbox, values)) ++report_.unencodable_deltas;
  static_cast<void>(from);
}

void ViewConsistencyChecker::on_delta_applied(ProcId owner, const Rect& bbox,
                                              std::span<const std::int32_t> values) {
  ++report_.deltas_applied;
  add_to_ledger(inflight_, *run_.truth, bbox, values, -1);
  // Deltas are addressed to the owner of their region, so the applied
  // (owner, bbox, values) triple must match a sent packet. A miss means the
  // network delivered something twice — the per-cell books still balance
  // then (extra view increment and extra inflight decrement cancel), which
  // is exactly why the ledger check exists.
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

void ViewConsistencyChecker::on_wire_routed(ProcId proc, WireId wire,
                                            std::int32_t iteration) {
  static_cast<void>(proc);
  static_cast<void>(wire);
  static_cast<void>(iteration);
  ++wires_routed_;
  if (options_.checkpoint_period > 0 &&
      wires_routed_ % options_.checkpoint_period == 0) {
    check_conservation();
  }
}

void ViewConsistencyChecker::on_run_end(const MpRunView& run) {
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

void ViewConsistencyChecker::check_conservation() {
  ++report_.checkpoints;
  const Partition& partition = *run_.partition;
  const CostArray& truth = *run_.truth;
  // pending(q) = inflight(q) + sum over every processor r of delta_r(q); the
  // owner's own term is taken back out per region below.
  std::copy(inflight_.begin(), inflight_.end(), pending_.begin());
  for (const RouterNode* node : run_.nodes) {
    node->delta().accumulate(truth.bounds(), pending_);
  }
  for (ProcId owner = 0; owner < partition.num_regions(); ++owner) {
    const Rect& region = partition.region(owner);
    const RouterNode& node = *run_.nodes[static_cast<std::size_t>(owner)];
    node.view().read_rect(region, region_view_);
    truth.read_rect(region, region_truth_);
    region_own_delta_.assign(static_cast<std::size_t>(region.area()), 0);
    node.delta().accumulate(region, region_own_delta_);
    report_.cells_checked += region.area();
    std::size_t i = 0;
    for (std::int32_t c = region.channel_lo; c <= region.channel_hi; ++c) {
      const std::int64_t* pending_row =
          pending_.data() + truth.index(GridPoint{c, region.x_lo});
      for (std::int32_t x = region.x_lo; x <= region.x_hi; ++x, ++i) {
        const std::int64_t accounted = region_view_[i] +
                                       pending_row[x - region.x_lo] -
                                       region_own_delta_[i];
        if (accounted != region_truth_[i]) {
          ++report_.violations;
          record(ConsistencyViolation{wires_routed_, GridPoint{c, x}, owner,
                                      region_truth_[i], accounted});
        }
      }
    }
  }
}

void ViewConsistencyChecker::record(const ConsistencyViolation& violation) {
  if (report_.samples.size() < options_.max_samples) {
    report_.samples.push_back(violation);
  }
}

}  // namespace locus
