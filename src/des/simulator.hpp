// Discrete-event simulation kernel.
//
// A clean-room functional substitute for the event-scheduling core of
// Sim++ (Cubert & Fishwick, 1995 — the paper's reference [4]), which is
// what §4.1 uses: schedule events, advance a virtual clock, run until the
// calendar drains. Single-threaded by design; experiment-level
// parallelism runs independent Simulator instances on separate threads.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "des/event_queue.hpp"

namespace nashlb::des {

/// The simulation kernel: a clock plus the pending-event calendar.
class Simulator {
 public:
  Simulator() = default;

  // The kernel hands out `this` to facilities and closures; moving it
  // would silently dangle them.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to fire `delay >= 0` time units from now.
  /// Throws std::invalid_argument on negative or non-finite delay.
  void schedule(SimTime delay, EventFn fn);

  /// Schedules `fn` at absolute time `t >= now()`.
  void schedule_at(SimTime t, EventFn fn);

  /// Runs until the calendar is empty.
  void run();

  /// Executes exactly one event if any is pending; returns whether it did.
  bool step();

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

 private:
  void dispatch(Event event);

  EventQueue queue_;
  SimTime now_ = 0.0;
};

}  // namespace nashlb::des
