#include "des/server_bank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nashlb::des {
namespace {

// Heap order for std::push_heap/pop_heap (a max-heap of "later"): earlier
// departure first, admission order among equal departures.
struct Later {
  template <class Head>
  bool operator()(const Head& a, const Head& b) const noexcept {
    if (a.departure != b.departure) return a.departure > b.departure;
    return a.admission > b.admission;
  }
};

constexpr std::size_t kInitialRing = 16;

}  // namespace

ServerBank::ServerBank(std::size_t servers) : rings_(servers) {
  for (Ring& ring : rings_) ring.jobs.resize(kInitialRing);
  heap_.reserve(servers);
}

ServerBank::Admission ServerBank::admit(std::size_t server, SimTime arrival,
                                        double service, std::size_t user) {
  if (!(service > 0.0) || !std::isfinite(service)) {
    throw std::invalid_argument(
        "ServerBank::admit: service time must be finite and > 0");
  }
  Ring& ring = rings_[server];
  const SimTime start = std::max(arrival, ring.last_departure);
  const SimTime departure = start + service;
  ring.last_departure = departure;
  if (ring.count == ring.jobs.size()) {
    std::vector<Job> grown(2 * ring.jobs.size());
    for (std::size_t k = 0; k < ring.count; ++k) {
      grown[k] = ring.jobs[(ring.head + k) & (ring.jobs.size() - 1)];
    }
    ring.jobs.swap(grown);
    ring.head = 0;
  }
  const std::uint64_t admission = admitted_++;
  ring.jobs[(ring.head + ring.count) & (ring.jobs.size() - 1)] =
      Job{departure, admission, arrival, user};
  if (ring.count++ == 0) {
    heap_.push_back({departure, admission, server});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  return {start, departure};
}

ServerBank::Job ServerBank::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::size_t server = heap_.back().server;
  Ring& ring = rings_[server];
  const Job job = ring.jobs[ring.head];
  ring.head = (ring.head + 1) & (ring.jobs.size() - 1);
  if (--ring.count == 0) {
    heap_.pop_back();
  } else {
    const Job& next = ring.jobs[ring.head];
    heap_.back() = {next.departure, next.admission, server};
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  return job;
}

}  // namespace nashlb::des
