#include "obs/counters.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "support/assert.hpp"

namespace locus::obs {

std::size_t histogram_bucket(std::uint64_t sample) {
  if (sample == 0) return 0;
  const auto bucket = static_cast<std::size_t>(std::bit_width(sample));
  return std::min(bucket, kHistogramBuckets - 1);
}

MetricId CounterRegistry::intern(std::string_view name, Kind kind) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  if (auto it = by_name_.find(std::string(name)); it != by_name_.end()) {
    LOCUS_ASSERT_MSG(kinds_[it->second] == kind,
                     "metric registered under two different kinds");
    return it->second;
  }
  const auto id = static_cast<MetricId>(names_.size());
  names_.emplace_back(name);
  kinds_.push_back(kind);
  by_name_.emplace(names_.back(), id);
  return id;
}

std::size_t CounterRegistry::slot_count() const {
  std::lock_guard<std::mutex> lock(names_mutex_);
  return names_.size();
}

MetricId CounterRegistry::counter(std::string_view name) {
  return intern(name, Kind::kCounter);
}

MetricId CounterRegistry::histogram(std::string_view name) {
  return intern(name, Kind::kHistogram);
}

std::optional<MetricId> CounterRegistry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(names_mutex_);
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t CounterRegistry::total(std::string_view name) const {
  const auto id = find(name);
  return id ? total(*id) : 0;
}

HistogramSnapshot CounterRegistry::histogram_total(std::string_view name) const {
  const auto id = find(name);
  return id ? histogram_total(*id) : HistogramSnapshot{};
}

std::vector<std::pair<std::string, std::uint64_t>>
CounterRegistry::merged_counters() const {
  std::vector<std::pair<std::string, MetricId>> named;
  {
    std::lock_guard<std::mutex> lock(names_mutex_);
    for (MetricId id = 0; id < names_.size(); ++id) {
      if (kinds_[id] == Kind::kCounter) named.emplace_back(names_[id], id);
    }
  }
  std::sort(named.begin(), named.end());
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(named.size());
  for (auto& [name, id] : named) out.emplace_back(std::move(name), total(id));
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
CounterRegistry::merged_histograms() const {
  std::vector<std::pair<std::string, MetricId>> named;
  {
    std::lock_guard<std::mutex> lock(names_mutex_);
    for (MetricId id = 0; id < names_.size(); ++id) {
      if (kinds_[id] == Kind::kHistogram) named.emplace_back(names_[id], id);
    }
  }
  std::sort(named.begin(), named.end());
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(named.size());
  for (auto& [name, id] : named) {
    out.emplace_back(std::move(name), histogram_total(id));
  }
  return out;
}

void CounterRegistry::merge_from(const CounterRegistry& other) {
  for (const auto& [name, value] : other.merged_counters()) {
    if (value != 0) add(counter(name), value);
  }
  for (const auto& [name, snap] : other.merged_histograms()) {
    if (snap.count == 0) continue;
    const MetricId id = histogram(name);
    if (id >= hists_.size()) hists_.resize(slot_count());
    HistogramSnapshot& h = hists_[id];
    if (h.count == 0 || snap.min < h.min) h.min = snap.min;
    if (snap.max > h.max) h.max = snap.max;
    h.count += snap.count;
    h.sum += snap.sum;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      h.buckets[b] += snap.buckets[b];
    }
  }
}

std::string CounterRegistry::metrics_csv() const {
  std::string out = "kind,name,value\n";
  auto row = [&out](const char* kind, const std::string& name, const char* suffix,
                    std::uint64_t value) {
    out += kind;
    out += ',';
    out += name;
    out += suffix;
    out += ',';
    out += std::to_string(value);
    out += '\n';
  };
  for (const auto& [name, value] : merged_counters()) {
    row("counter", name, "", value);
  }
  for (const auto& [name, h] : merged_histograms()) {
    row("histogram", name, ".count", h.count);
    row("histogram", name, ".sum", h.sum);
    row("histogram", name, ".min", h.min);
    row("histogram", name, ".max", h.max);
  }
  return out;
}

bool CounterRegistry::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string csv = metrics_csv();
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace locus::obs
