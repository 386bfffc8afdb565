#include "tracer.hpp"

#include "support/assert.hpp"

namespace perfbench {

std::int32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, run_id_});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  LOCUS_ASSERT_MSG(!open_.empty() && open_.back() == id,
                   "spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, std::int64_t> Tracer::self_ns_by_name() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

void TimedObserver::on_run_start(const locus::MpRunView& run) {
  Scope s(&tracer_, name_);
  inner_.on_run_start(run);
}

void TimedObserver::on_delta_sent(locus::ProcId from, locus::ProcId region,
                                  const locus::Rect& bbox,
                                  std::span<const std::int32_t> values) {
  Scope s(&tracer_, name_);
  inner_.on_delta_sent(from, region, bbox, values);
}

void TimedObserver::on_delta_applied(locus::ProcId owner, const locus::Rect& bbox,
                                     std::span<const std::int32_t> values) {
  Scope s(&tracer_, name_);
  inner_.on_delta_applied(owner, bbox, values);
}

void TimedObserver::on_wire_routed(locus::ProcId proc, locus::WireId wire,
                                   std::int32_t iteration) {
  Scope s(&tracer_, name_);
  inner_.on_wire_routed(proc, wire, iteration);
}

void TimedObserver::on_run_end(const locus::MpRunView& run) {
  Scope s(&tracer_, name_);
  inner_.on_run_end(run);
}

}  // namespace perfbench
