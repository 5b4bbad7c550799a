// Discrete-event simulation kernel.
//
// A clean-room functional substitute for the event-scheduling core of
// Sim++ (Cubert & Fishwick, 1995 — the paper's reference [4]), which is
// what §4.1 uses: schedule events, advance a virtual clock, run until the
// calendar drains or an event budget is spent. Single-threaded by design;
// experiment-level parallelism runs independent Simulator instances on
// separate threads.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "des/event_queue.hpp"
#include "obs/metrics.hpp"

namespace nashlb::des {

/// Why a call to run() returned.
enum class StopReason {
  Exhausted,    ///< no pending events remain
  EventLimit,   ///< the event budget was spent
};

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

  /// Runs until the calendar is empty or the event budget (0 =
  /// unlimited) is exhausted.
  StopReason run(std::uint64_t max_events = 0);

  /// Executes exactly one event if any is pending; returns whether it did.
  bool step();

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

  /// Publishes the kernel's counters into `reg` under `<prefix>.*`:
  /// events_scheduled, events_executed, pending_events. A no-op when the
  /// obs layer is compiled out.
  void publish_metrics(obs::Registry& reg,
                       const std::string& prefix = "des") const;

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

 private:
  void dispatch(Event event);

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_scheduled_ = 0;
};

}  // namespace nashlb::des
