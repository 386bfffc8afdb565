#include "sim/event_queue.hpp"

#include <limits>

namespace locus {

EventQueue::HandlerId EventQueue::add_handler(EventHandler fn, void* ctx) {
  LOCUS_ASSERT(fn != nullptr);
  LOCUS_ASSERT_MSG(handlers_.size() < std::numeric_limits<HandlerId>::max(),
                   "handler table overflow");
  handlers_.push_back(HandlerEntry{fn, ctx});
  return static_cast<HandlerId>(handlers_.size() - 1);
}

void EventQueue::schedule(SimTime time, HandlerId handler, std::uint64_t a,
                          std::uint64_t b) {
  LOCUS_ASSERT_MSG(time >= now_, "cannot schedule into the past");
  LOCUS_ASSERT(handler < handlers_.size());
  LOCUS_ASSERT_MSG(next_seq_ >> 48 == 0, "event sequence space exhausted");
  heap_.push(Event{time, (next_seq_++ << 16) | handler, a, b});
  peak_pending_ = std::max(peak_pending_, heap_.size());
}

void EventQueue::dispatch(const Event& ev) {
  const HandlerEntry& h = handlers_[ev.handler()];
  h.fn(h.ctx, ev.time, ev.a, ev.b);
}

std::size_t EventQueue::run_loop(std::size_t limit) {
  std::size_t count = 0;
  while (!heap_.empty() && count < limit) {
    const Event ev = heap_.top();  // trivially copyable: plain copy, no cast
    heap_.pop();
    if (obs_) obs_.obs->counters().observe(obs_.depth, heap_.size());
    now_ = ev.time;
    ++executed_;
    dispatch(ev);
    ++count;
  }
  return count;
}

SimTime EventQueue::run() {
  run_loop(std::numeric_limits<std::size_t>::max());
  return now_;
}

std::size_t EventQueue::run_bounded(std::size_t limit) {
  return run_loop(limit);
}

}  // namespace locus
