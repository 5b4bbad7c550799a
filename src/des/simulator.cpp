#include "des/simulator.hpp"

#include <cmath>

namespace nashlb::des {

void Simulator::schedule(SimTime delay, EventFn fn) {
  if (!(delay >= 0.0) || !std::isfinite(delay)) {
    throw std::invalid_argument(
        "Simulator::schedule: delay must be finite and >= 0");
  }
  ++events_scheduled_;
  queue_.push(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime t, EventFn fn) {
  if (!(t >= now_) || !std::isfinite(t)) {
    throw std::invalid_argument(
        "Simulator::schedule_at: time must be finite and >= now()");
  }
  ++events_scheduled_;
  queue_.push(t, std::move(fn));
}

StopReason Simulator::run(std::uint64_t max_events) {
  std::uint64_t executed = 0;
  while (!queue_.empty()) {
    if (max_events != 0 && executed >= max_events) {
      return StopReason::EventLimit;
    }
    dispatch(queue_.pop());
    ++executed;
  }
  return StopReason::Exhausted;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  dispatch(queue_.pop());
  return true;
}

void Simulator::dispatch(Event event) {
  now_ = event.time;
  ++events_executed_;
  if (event.fn) event.fn(now_);
}

void Simulator::publish_metrics(obs::Registry& reg,
                                const std::string& prefix) const {
  reg.counter(prefix + ".events_scheduled").add(events_scheduled_);
  reg.counter(prefix + ".events_executed").add(events_executed_);
  reg.counter(prefix + ".pending_events").add(queue_.size());
}

}  // namespace nashlb::des
