#include "des/facility.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace nashlb::des {

Facility::Facility(Simulator& sim, std::string name, unsigned servers,
                   PreemptPolicy /*policy*/)
    : sim_(sim), name_(std::move(name)) {
  if (servers == 0) {
    throw std::invalid_argument("Facility: need at least one server");
  }
  servers_.resize(servers);
}

void Facility::request(double service_time, CompletionFn on_complete) {
  if (!(service_time > 0.0) || !std::isfinite(service_time)) {
    throw std::invalid_argument(
        "Facility::request: service_time must be finite and > 0");
  }
  ++requests_;
  Job job{service_time, sim_.now(), std::move(on_complete)};
  for (unsigned i = 0; i < servers_.size(); ++i) {
    if (!servers_[i].busy) {
      start_service(i, std::move(job));
      return;
    }
  }
  push_waiting(std::move(job));
  note_queue_change();
}

void Facility::start_service(unsigned server, Job&& job) {
  wait_stats_.add(sim_.now() - job.submitted);
  Server& slot = servers_[server];
  slot.job = std::move(job);
  slot.busy = true;
  ++busy_;
  note_busy_change();
  auto done = [this, server](SimTime t) { finish_service(server, t); };
  static_assert(EventFn::fits_inline<decltype(done)>);
  sim_.schedule(slot.job.service, done);
}

void Facility::finish_service(unsigned server, SimTime t) {
  Server& slot = servers_[server];
  Job job = std::move(slot.job);
  slot.busy = false;
  --busy_;
  ++completed_;
  sojourn_hist_.record(t - job.submitted);
  note_busy_change();
  // Start the next waiting job before running the completion callback:
  // the callback may submit new work and must observe a settled facility.
  // A job waits only while every server is busy, so the server just freed
  // is the lowest-index idle one.
  if (waiting_count_ > 0) {
    Job next = pop_waiting();
    note_queue_change();
    start_service(server, std::move(next));
  }
  if (job.on_complete) job.on_complete(t);
}

void Facility::push_waiting(Job&& job) {
  if (waiting_count_ == waiting_.size()) {
    std::vector<Job> grown(std::max<std::size_t>(8, 2 * waiting_.size()));
    for (std::size_t k = 0; k < waiting_count_; ++k) {
      grown[k] =
          std::move(waiting_[(waiting_head_ + k) & (waiting_.size() - 1)]);
    }
    waiting_.swap(grown);
    waiting_head_ = 0;
  }
  waiting_[(waiting_head_ + waiting_count_) & (waiting_.size() - 1)] =
      std::move(job);
  ++waiting_count_;
}

Facility::Job Facility::pop_waiting() {
  Job job = std::move(waiting_[waiting_head_]);
  waiting_head_ = (waiting_head_ + 1) & (waiting_.size() - 1);
  --waiting_count_;
  return job;
}

void Facility::note_busy_change() {
  busy_tw_.update(sim_.now(), static_cast<double>(busy_));
}

void Facility::note_queue_change() {
  queue_tw_.update(sim_.now(), static_cast<double>(waiting_count_));
}

double Facility::utilization(SimTime now) const noexcept {
  const double avg_busy = busy_tw_.average(now);
  return avg_busy / static_cast<double>(servers_.size());
}

double Facility::mean_queue_length(SimTime now) const noexcept {
  return queue_tw_.average(now);
}

void Facility::publish_metrics(obs::Registry& reg, SimTime now) const {
  reg.counter(name_ + ".requests").add(requests_);
  reg.counter(name_ + ".completed").add(completed_);
  reg.timer(name_ + ".busy_time").add_batch(busy_tw_.average(now) * now,
                                            completed_);
  reg.timer(name_ + ".waiting")
      .add_batch(wait_stats_.sum(), wait_stats_.count(), wait_stats_.min(),
                 wait_stats_.max());
  reg.histogram(name_ + ".sojourn").merge(sojourn_hist_);
}

}  // namespace nashlb::des
