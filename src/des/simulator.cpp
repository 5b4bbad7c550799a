#include "des/simulator.hpp"

#include <cmath>

namespace nashlb::des {

void Simulator::schedule(SimTime delay, EventFn fn) {
  if (!(delay >= 0.0) || !std::isfinite(delay)) {
    throw std::invalid_argument(
        "Simulator::schedule: delay must be finite and >= 0");
  }
  queue_.push(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime t, EventFn fn) {
  if (!(t >= now_) || !std::isfinite(t)) {
    throw std::invalid_argument(
        "Simulator::schedule_at: time must be finite and >= now()");
  }
  queue_.push(t, std::move(fn));
}

void Simulator::run() {
  while (!queue_.empty()) dispatch(queue_.pop());
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  dispatch(queue_.pop());
  return true;
}

void Simulator::dispatch(Event event) {
  now_ = event.time;
  if (event.fn) event.fn(now_);
}

}  // namespace nashlb::des
