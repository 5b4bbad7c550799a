// A bank of single-server FCFS queues whose departures are known at
// admission.
//
// The paper's computer runs each job to completion in FCFS order (§4.1),
// and the simulators draw a job's service time when it arrives. So a
// job's departure is known the moment it is admitted — the Lindley
// recursion D = max(A, D_prev) + S — and no completion event, waiting
// queue or busy flag is needed to compute it. The bank keeps, per server,
// the last departure and a FIFO ring of pending jobs; a binary min-heap
// over the heads of the non-empty rings, keyed by (departure, admission
// number), hands jobs back in departure order when the caller's clock
// passes them. A caller thus folds its per-job statistics in the order
// a completion event per job would fire on a des::Simulator calendar
// (des::Facility), without putting those events on one.
//
// One difference from the calendar: when two servers' departures are the
// same double, the bank hands them over in admission order, while the
// calendar fired them in the order their completion events were
// scheduled (at service start). Completions draw no random numbers, so
// such a tie can change only the order in which a caller folds the two
// jobs, never the sample path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event_queue.hpp"  // SimTime

namespace nashlb::des {

class ServerBank {
 public:
  /// One admitted job.
  struct Job {
    SimTime departure = 0.0;
    std::uint64_t admission = 0;  ///< 0, 1, 2, ... across the whole bank
    SimTime arrival = 0.0;
    std::size_t user = 0;  ///< the caller's tag, handed back unchanged
  };

  /// When an admitted job starts service and when it leaves.
  struct Admission {
    SimTime start;
    SimTime departure;
  };

  /// `servers` idle servers, each with a ring of 16 pending jobs (a ring
  /// doubles when it fills), so a steady state allocates nothing.
  explicit ServerBank(std::size_t servers);

  /// Admits a job arriving at `arrival` at `server`: it starts at
  /// max(arrival, the server's last departure) and needs `service` > 0
  /// (finite) units of service; throws std::invalid_argument otherwise.
  /// Arrivals come in non-decreasing time order, from time 0.
  Admission admit(std::size_t server, SimTime arrival, double service,
                  std::size_t user);

  /// Hands every pending job that departs before `t` to `fn(const Job&)`,
  /// in (departure, admission) order.
  template <class Fn>
  void depart_before(SimTime t, Fn&& fn) {
    while (!heap_.empty() && heap_.front().departure < t) fn(pop());
  }

  /// Hands every pending job to `fn`, in departure order.
  template <class Fn>
  void drain(Fn&& fn) {
    while (!heap_.empty()) fn(pop());
  }

 private:
  /// A server's FIFO of pending jobs: `count` jobs from `head`, wrapping;
  /// the capacity is a power of two.
  struct Ring {
    std::vector<Job> jobs;
    std::size_t head = 0;
    std::size_t count = 0;
    SimTime last_departure = 0.0;
  };
  /// The heap's entry for a non-empty ring: its head's key.
  struct Head {
    SimTime departure;
    std::uint64_t admission;
    std::size_t server;
  };

  Job pop();

  std::vector<Ring> rings_;
  std::vector<Head> heap_;
  std::uint64_t admitted_ = 0;
};

}  // namespace nashlb::des
