#include "sim/link_cost.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace locus {

const char* link_cost_model_name(LinkCostModelKind kind) {
  switch (kind) {
    case LinkCostModelKind::kFixed: return "fixed";
    case LinkCostModelKind::kMd1: return "md1";
  }
  return "?";
}

SimTime md1_wait_ns(SimTime service_ns, double rho) {
  LOCUS_ASSERT(service_ns >= 0);
  if (rho <= 0.0 || service_ns == 0) return 0;
  rho = std::min(rho, kMd1RhoMax);
  // Pollaczek–Khinchine with deterministic service (Cs^2 = 0):
  //   Wq = rho / (2·mu·(1-rho)) = S·rho / (2·(1-rho)).
  const double wait =
      static_cast<double>(service_ns) * rho / (2.0 * (1.0 - rho));
  return static_cast<SimTime>(wait);
}

double LinkCostModel::utilization_of(SimTime busy, SimTime now) {
  if (now <= 0) return 0.0;
  return std::min(1.0, static_cast<double>(busy) / static_cast<double>(now));
}

LinkUsageSummary LinkCostModel::summary(SimTime now) const {
  LinkUsageSummary s;
  double util_sum = 0.0;
  for (std::size_t link = 0; link < bytes_.size(); ++link) {
    s.stalls += stalls_[link];
    s.stall_ns += stall_ns_[link];
    if (bytes_[link] == 0) continue;
    ++s.links_used;
    const double u = utilization(static_cast<std::int32_t>(link), now);
    util_sum += u;
    s.max_utilization = std::max(s.max_utilization, u);
  }
  s.mean_utilization =
      s.links_used == 0 ? 0.0 : util_sum / static_cast<double>(s.links_used);
  return s;
}

namespace {

/// The paper's charge, bit-identical to the pre-seam Network loop: no
/// capacity scaling, busy for L bytes at one byte per HopTime.
class FixedLinkCost final : public LinkCostModel {
 public:
  explicit FixedLinkCost(std::size_t num_links)
      : LinkCostModel(LinkCostModelKind::kFixed, num_links) {}

  SimTime cross(std::int32_t link_in, SimTime head_in, std::int64_t bytes,
                SimTime& waited) override {
    const auto link = static_cast<std::size_t>(link_in);
    SimTime& free_at = free_[link];
    const SimTime start = std::max(head_in, free_at);
    waited += start - head_in;
    stall(link, start - head_in);
    free_at = start + bytes * kHopTimeNs;
    charge(link, bytes, bytes * kHopTimeNs);
    return start + kHopTimeNs;
  }
};

/// Bandwidth-limited M/D/1 queueing. A link's service time is
/// bytes·HopTime / capacity_scale (fat links drain faster), never below one
/// HopTime so a head always occupies the link it crosses.
class Md1LinkCost final : public LinkCostModel {
 public:
  explicit Md1LinkCost(const Topology& topology)
      : LinkCostModel(LinkCostModelKind::kMd1,
                      static_cast<std::size_t>(topology.num_links())),
        scale_(static_cast<std::size_t>(topology.num_links())) {
    for (std::size_t link = 0; link < scale_.size(); ++link) {
      scale_[link] =
          topology.link_capacity_scale(static_cast<std::int32_t>(link));
      LOCUS_ASSERT(scale_[link] >= 1);
    }
  }

  SimTime cross(std::int32_t link_in, SimTime head_in, std::int64_t bytes,
                SimTime& waited) override {
    const auto link = static_cast<std::size_t>(link_in);
    const SimTime service = std::max<SimTime>(
        kHopTimeNs, bytes * kHopTimeNs / scale_[link]);
    // Utilization this head observes: the link's cumulative busy time over
    // elapsed simulated time. Deterministic — it depends only on the
    // simulated schedule, never on wall clock.
    const double rho =
        head_in <= 0 ? 0.0
                     : static_cast<double>(busy_ns_[link]) /
                           static_cast<double>(head_in);
    const SimTime queue_wait = md1_wait_ns(service, rho);
    SimTime& free_at = free_[link];
    const SimTime start = std::max(head_in + queue_wait, free_at);
    waited += start - head_in;
    stall(link, start - head_in);
    free_at = start + service;
    charge(link, bytes, service);
    return start + kHopTimeNs;
  }

 private:
  std::vector<std::int32_t> scale_;
};

}  // namespace

std::unique_ptr<LinkCostModel> LinkCostModel::make(const Topology& topology,
                                                   const LinkCostParams& params) {
  const auto links = static_cast<std::size_t>(topology.num_links());
  switch (params.kind) {
    case LinkCostModelKind::kFixed:
      return std::make_unique<FixedLinkCost>(links);
    case LinkCostModelKind::kMd1:
      return std::make_unique<Md1LinkCost>(topology);
  }
  LOCUS_UNREACHABLE("bad LinkCostModelKind");
}

}  // namespace locus
