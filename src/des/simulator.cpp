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
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!queue_.empty()) {
    if (stop_requested_) return StopReason::Stopped;
    if (max_events != 0 && executed >= max_events) {
      return StopReason::EventLimit;
    }
    dispatch(queue_.pop());
    ++executed;
  }
  return stop_requested_ ? StopReason::Stopped : StopReason::Exhausted;
}

StopReason Simulator::run_until(SimTime horizon, std::uint64_t max_events) {
  if (!(horizon >= now_) || !std::isfinite(horizon)) {
    throw std::invalid_argument(
        "Simulator::run_until: horizon must be finite and >= now()");
  }
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!queue_.empty()) {
    if (stop_requested_) return StopReason::Stopped;
    if (max_events != 0 && executed >= max_events) {
      return StopReason::EventLimit;
    }
    if (queue_.next_time() > horizon) {
      now_ = horizon;
      return StopReason::TimeLimit;
    }
    dispatch(queue_.pop());
    ++executed;
  }
  if (stop_requested_) return StopReason::Stopped;
  now_ = horizon;
  return StopReason::Exhausted;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  dispatch(queue_.pop());
  return true;
}

void Simulator::reset(SimTime t0) noexcept {
  queue_.clear();
  now_ = t0;
  stop_requested_ = false;
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
