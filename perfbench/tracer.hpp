// Host-time spans recorded from outside the program: the benchmark opens a
// span around each of its own calls into a layer's public functions, keeps
// every span in memory, and derives per-layer self time when the run ends.
// A span's self time is its duration minus the time its direct children
// cover, so the self times of all spans under a root sum exactly to the
// root's duration (integer nanoseconds, no rounding).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "msg/observer.hpp"

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< layer name; points at a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::int32_t run_id = 0;   ///< traced iteration the span belongs to
};

class Tracer {
 public:
  /// Spans opened from now on carry `run_id`.
  void set_run(std::int32_t run_id) { run_id_ = run_id; }

  /// Opens a span nested in the innermost open one; returns its index.
  std::int32_t begin(const char* name);
  /// Closes the innermost open span, which must be `id`.
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed self time per span name over every closed span.
  std::map<std::string, std::int64_t> self_ns_by_name() const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::int32_t run_id_ = 0;
};

/// Span for the lifetime of the scope; does nothing when `tracer` is null,
/// which is how the untraced runs call the same code.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Forwards every hook to `inner` inside a span named `name`, so a checker
/// riding along a message passing run is timed separately from the run.
class TimedObserver final : public locus::MpObserver {
 public:
  TimedObserver(locus::MpObserver& inner, Tracer& tracer, const char* name)
      : inner_(inner), tracer_(tracer), name_(name) {}

  void on_run_start(const locus::MpRunView& run) override;
  void on_delta_sent(locus::ProcId from, locus::ProcId region, const locus::Rect& bbox,
                     std::span<const std::int32_t> values) override;
  void on_delta_applied(locus::ProcId owner, const locus::Rect& bbox,
                        std::span<const std::int32_t> values) override;
  void on_wire_routed(locus::ProcId proc, locus::WireId wire,
                      std::int32_t iteration) override;
  void on_run_end(const locus::MpRunView& run) override;

 private:
  locus::MpObserver& inner_;
  Tracer& tracer_;
  const char* name_;
};

}  // namespace perfbench
