#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

namespace nashlb::des {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<double> fired;
  q.push(3.0, [&](SimTime t) { fired.push_back(t); });
  q.push(1.0, [&](SimTime t) { fired.push_back(t); });
  q.push(2.0, [&](SimTime t) { fired.push_back(t); });
  while (!q.empty()) {
    Event ev = q.pop();
    ev.fn(ev.time);
  }
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i](SimTime) { order.push_back(i); });
  }
  while (!q.empty()) {
    Event ev = q.pop();
    ev.fn(ev.time);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
}

TEST(EventQueue, HeapStressRandomOrder) {
  EventQueue q;
  // Insert times in a scrambled deterministic order; verify sorted pops.
  std::uint64_t x = 88172645463325252ULL;
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double t = static_cast<double>(x % 100000) / 100.0;
    times.push_back(t);
    q.push(t, [](SimTime) {});
  }
  double prev = -1.0;
  while (!q.empty()) {
    const Event ev = q.pop();
    EXPECT_GE(ev.time, prev);
    prev = ev.time;
  }
}

TEST(EventQueue, InterleavedPushPopReusesSlots) {
  // Pops interleaved with pushes recycle callable slots; each event must
  // still fire its own body, in (time, push order) against a sorted
  // reference.
  EventQueue q;
  std::multimap<double, int> reference;  // equal keys keep insertion order
  std::vector<int> fired;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  int next_id = 0;
  double now = 0.0;
  for (int round = 0; round < 500; ++round) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    for (std::uint64_t k = 0; k < x % 4; ++k) {
      const double t = now + static_cast<double>((x >> (8 * k)) % 8);
      const int id = next_id++;
      reference.emplace(t, id);
      q.push(t, [&fired, id](SimTime) { fired.push_back(id); });
    }
    if (!q.empty()) {
      Event ev = q.pop();
      ASSERT_EQ(ev.time, reference.begin()->first);
      ev.fn(ev.time);
      EXPECT_EQ(fired.back(), reference.begin()->second);
      reference.erase(reference.begin());
      now = ev.time;
    }
  }
  EXPECT_EQ(q.size(), reference.size());
}

}  // namespace
}  // namespace nashlb::des
