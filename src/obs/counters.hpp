// Metrics registry: named monotonic counters and log2 histograms.
//
// One registry serves a whole run and has a single writer: the
// deterministic simulators all run on one host thread. Names are
// registered once (idempotent; mutex-protected, intended for setup time)
// and return a stable MetricId; increments are then a plain uint64 add.
// Concurrent runs (run_indexed jobs) each own a registry, and the caller folds
// them together with merge_from() once the workers have joined.
//
// Histograms bucket samples by log2 (bucket 0: sample 0, bucket k:
// [2^(k-1), 2^k)) and track count/sum/min/max exactly — enough for queue
// depths, packet sizes and latency distributions without per-sample
// storage.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace locus::obs {

using MetricId = std::uint32_t;

inline constexpr std::size_t kHistogramBuckets = 48;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Bucket a sample lands in: 0 for 0, otherwise 1 + floor(log2(sample)),
/// clamped to the last bucket.
std::size_t histogram_bucket(std::uint64_t sample);

class CounterRegistry {
 public:
  /// Registers (or looks up) a monotonic counter. Safe to call from any
  /// thread, but intended at setup: adds concurrent with registration of a
  /// *new* name on another thread are not synchronized.
  MetricId counter(std::string_view name);
  /// Registers (or looks up) a histogram.
  MetricId histogram(std::string_view name);

  void add(MetricId id, std::uint64_t delta = 1) {
    if (id >= values_.size()) values_.resize(slot_count(), 0);
    values_[id] += delta;
  }

  void observe(MetricId id, std::uint64_t sample) {
    if (id >= hists_.size()) hists_.resize(slot_count());
    HistogramSnapshot& h = hists_[id];
    if (h.count == 0 || sample < h.min) h.min = sample;
    if (sample > h.max) h.max = sample;
    ++h.count;
    h.sum += sample;
    ++h.buckets[histogram_bucket(sample)];
  }

  /// Value of a counter.
  std::uint64_t total(MetricId id) const {
    return id < values_.size() ? values_[id] : 0;
  }
  /// Value by name; 0 for unknown names (a counter nobody bumped and a
  /// counter nobody registered read the same).
  std::uint64_t total(std::string_view name) const;
  HistogramSnapshot histogram_total(MetricId id) const {
    return id < hists_.size() ? hists_[id] : HistogramSnapshot{};
  }
  HistogramSnapshot histogram_total(std::string_view name) const;

  /// All counters with their values, sorted by name (deterministic).
  std::vector<std::pair<std::string, std::uint64_t>> merged_counters() const;
  /// All histograms with their snapshots, sorted by name.
  std::vector<std::pair<std::string, HistogramSnapshot>> merged_histograms() const;

  /// Merge of a whole sibling registry: registers every metric of `other`
  /// here (by name) and adds its totals in. Each run_indexed job runs against
  /// its own registry, and the caller absorbs them in submission order once
  /// the workers have joined, so the combined totals are deterministic. Not
  /// thread safe; call after the join.
  void merge_from(const CounterRegistry& other);

  /// Compact CSV: header `kind,name,value`, one row per counter, four rows
  /// (count/sum/min/max) per histogram, sorted by name. Deterministic.
  std::string metrics_csv() const;
  /// Writes metrics_csv() to `path`; returns false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kHistogram };

  MetricId intern(std::string_view name, Kind kind);
  /// Id of `name`, or nullopt when it was never registered.
  std::optional<MetricId> find(std::string_view name) const;
  std::size_t slot_count() const;

  mutable std::mutex names_mutex_;
  std::vector<std::string> names_;  ///< by id
  std::vector<Kind> kinds_;         ///< by id
  std::unordered_map<std::string, MetricId> by_name_;
  std::vector<std::uint64_t> values_;     ///< by id; grown lazily
  std::vector<HistogramSnapshot> hists_;  ///< by id; grown lazily
};

}  // namespace locus::obs
