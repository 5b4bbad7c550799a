// Service facility: the queueing-station abstraction of the DES substrate.
//
// Mirrors the "facility" concept of Sim++ [4] in the configuration the
// paper's computers use: one or more servers fed from one FCFS queue,
// every job run to completion (§4.1). A job goes to the lowest-index idle
// server, or waits in a FIFO ring buffer; each service completion is an
// event on the Simulator's calendar. Per-facility statistics: utilization
// (time-weighted) and sojourn times.
//
// The library's simulators no longer use it: their computers are a
// des::ServerBank, which computes each departure at admission. Facility
// stays as the event-calendar reference that the tests
// (tests/support/calendar_sim.hpp) and the benchmark's replay compare
// them against.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "obs/histogram.hpp"
#include "stats/moments.hpp"

namespace nashlb::des {

/// Called when a job's service completes, with the completion time.
using CompletionFn = EventFn;

/// Service discipline of a Facility: run-to-completion, the paper's model
/// and the only one.
enum class PreemptPolicy {
  None,
};

/// A multi-server FCFS queueing station.
class Facility {
 public:
  /// `servers >= 1`. The name appears in diagnostics only.
  Facility(Simulator& sim, std::string name, unsigned servers = 1,
           PreemptPolicy policy = PreemptPolicy::None);

  Facility(const Facility&) = delete;
  Facility& operator=(const Facility&) = delete;

  /// Submits a job needing `service_time > 0` units of service.
  /// `on_complete` fires when the job's service finishes.
  void request(double service_time, CompletionFn on_complete);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] unsigned servers() const noexcept {
    return static_cast<unsigned>(servers_.size());
  }

  /// Jobs currently waiting (not in service).
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return waiting_count_;
  }
  /// Servers currently serving a job.
  [[nodiscard]] unsigned busy_servers() const noexcept { return busy_; }

  /// Time-average utilization (busy server-fraction) up to `now`.
  [[nodiscard]] double utilization(SimTime now) const noexcept;

  /// Per-job sojourn (response) time distribution: request to service
  /// completion, one observation per completed job. For the paper's
  /// single-server FCFS facility this is the M/M/1 response time whose
  /// quantiles bench_sim_validation checks against -ln(1-q)/(mu-lambda).
  /// Empty when the obs layer is compiled out.
  [[nodiscard]] const obs::Histogram& sojourn_histogram() const noexcept {
    return sojourn_hist_;
  }

 private:
  struct Job {
    double service = 0.0;
    SimTime submitted = 0.0;
    CompletionFn on_complete;
  };

  struct Server {
    Job job;
    bool busy = false;
  };

  void start_service(unsigned server, Job&& job);
  void finish_service(unsigned server, SimTime t);
  void push_waiting(Job&& job);
  Job pop_waiting();
  void note_busy_change();

  Simulator& sim_;
  std::string name_;
  std::vector<Server> servers_;
  // FIFO ring buffer: waiting_count_ jobs from waiting_head_, wrapping;
  // the capacity is zero or a power of two.
  std::vector<Job> waiting_;
  std::size_t waiting_head_ = 0;
  std::size_t waiting_count_ = 0;
  unsigned busy_ = 0;
  stats::TimeWeighted busy_tw_;
  obs::Histogram sojourn_hist_;
};

}  // namespace nashlb::des
