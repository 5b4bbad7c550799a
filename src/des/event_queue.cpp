#include "des/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace nashlb::des {
namespace {

// Heap order for std::push_heap/pop_heap (a max-heap of "later"): earlier
// time first, FIFO among simultaneous events. (time, seq) is a total
// order, so the firing sequence does not depend on the heap algorithm.
struct Later {
  template <class Entry>
  bool operator()(const Entry& a, const Entry& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::push(SimTime time, EventFn&& fn) {
  std::size_t slot = slots_.size();
  if (free_.empty()) {
    slots_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back({time, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimTime EventQueue::next_time() const {
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time: queue is empty");
  }
  return heap_.front().time;
}

Event EventQueue::pop() {
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop: queue is empty");
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  Event event{top.time, std::move(slots_[top.slot])};
  free_.push_back(top.slot);
  return event;
}

}  // namespace nashlb::des
