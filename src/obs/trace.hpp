// Simulator event recorder with Chrome trace_event JSON export.
//
// Records complete spans (node compute, per-wire route/commit intervals),
// instants (packet inject/deliver, hop traversals) and counter samples
// (queue depth), all stamped in *simulated* nanoseconds, and serializes
// them to the Chrome trace_event format — load the file in Perfetto
// (https://ui.perfetto.dev) or about://tracing. Flow events connect a
// packet's inject to its delivery as an arrow.
//
// Event storage is flat PODs over an interned string table, appended in
// emission order; because the DES executes events in deterministic order
// and all timestamps are simulated, the exported JSON is byte-identical
// across runs of the same seed (the golden test relies on this). The sink
// is single-writer: only the sequential simulators emit traces.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace locus::obs {

using TraceTime = std::int64_t;  ///< simulated nanoseconds (sim/event_queue.hpp)

class TraceSink {
 public:
  using StrId = std::uint32_t;

  struct Options {
    /// Emit one instant per link traversal of every packet. Faithful but
    /// voluminous; off by default.
    bool hop_detail = false;
  };

  TraceSink() = default;
  explicit TraceSink(Options options) : options_(options) {}

  /// Interns `s`, returning a stable id (idempotent).
  StrId intern(std::string_view s);

  /// Names a track (Chrome "thread"); tids are app-defined — simulated
  /// processor ids here.
  void set_track_name(std::int32_t tid, std::string_view name);

  /// A span [ts, ts+dur] on `tid`, with up to two named integer args.
  void complete(std::int32_t tid, StrId cat, StrId name, TraceTime ts, TraceTime dur);
  void complete(std::int32_t tid, StrId cat, StrId name, TraceTime ts, TraceTime dur,
                StrId a0_name, std::int64_t a0);
  void complete(std::int32_t tid, StrId cat, StrId name, TraceTime ts, TraceTime dur,
                StrId a0_name, std::int64_t a0, StrId a1_name, std::int64_t a1);

  /// A point event on `tid`.
  void instant(std::int32_t tid, StrId cat, StrId name, TraceTime ts);
  void instant(std::int32_t tid, StrId cat, StrId name, TraceTime ts, StrId a0_name,
               std::int64_t a0);
  void instant(std::int32_t tid, StrId cat, StrId name, TraceTime ts, StrId a0_name,
               std::int64_t a0, StrId a1_name, std::int64_t a1);

  /// A sampled counter track ("C" event).
  void counter(std::int32_t tid, StrId name, TraceTime ts, std::int64_t value);

  /// Flow arrow endpoints; `flow_id` pairs a begin with its end.
  void flow_begin(std::int32_t tid, StrId cat, StrId name, TraceTime ts,
                  std::uint64_t flow_id);
  void flow_end(std::int32_t tid, StrId cat, StrId name, TraceTime ts,
                std::uint64_t flow_id);

  bool hop_detail() const { return options_.hop_detail; }
  std::size_t size() const { return events_.size(); }

  /// Serializes everything recorded so far as Chrome trace JSON.
  std::string chrome_json() const;
  /// Writes chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Event {
    TraceTime ts = 0;
    TraceTime dur = 0;          ///< 'X' only
    std::uint64_t flow_id = 0;  ///< 's'/'f' only
    std::int64_t a0 = 0;
    std::int64_t a1 = 0;
    StrId name = 0;
    StrId cat = 0;
    StrId a0_name = 0;
    StrId a1_name = 0;
    std::int32_t tid = 0;
    char ph = 'i';
    std::uint8_t nargs = 0;
  };

  Event& push(char ph, std::int32_t tid, StrId cat, StrId name, TraceTime ts);

  Options options_;
  std::vector<Event> events_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, StrId> string_ids_;
  std::vector<std::pair<std::int32_t, StrId>> track_names_;
};

}  // namespace locus::obs
