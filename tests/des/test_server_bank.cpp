// The server bank: the Lindley recursion at admission, departures handed
// back in (departure, admission) order, and the FIFO rings across
// wrap-around and growth.
#include "des/server_bank.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace nashlb::des {
namespace {

std::vector<ServerBank::Job> drain_all(ServerBank& bank) {
  std::vector<ServerBank::Job> out;
  bank.drain([&out](const ServerBank::Job& job) { out.push_back(job); });
  return out;
}

TEST(ServerBank, AdmissionFollowsTheLindleyRecursion) {
  ServerBank bank(1);
  // Idle server: the job starts on arrival.
  ServerBank::Admission a = bank.admit(0, 1.0, 2.0, 7);
  EXPECT_EQ(a.start, 1.0);
  EXPECT_EQ(a.departure, 3.0);
  // Busy server: the next job starts at the last departure.
  a = bank.admit(0, 2.0, 0.5, 8);
  EXPECT_EQ(a.start, 3.0);
  EXPECT_EQ(a.departure, 3.5);
  // Idle again by t = 5.
  a = bank.admit(0, 5.0, 1.0, 9);
  EXPECT_EQ(a.start, 5.0);
  EXPECT_EQ(a.departure, 6.0);
  const std::vector<ServerBank::Job> jobs = drain_all(bank);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].user, 7u);
  EXPECT_EQ(jobs[1].arrival, 2.0);
  EXPECT_EQ(jobs[1].departure, 3.5);
  EXPECT_EQ(jobs[2].admission, 2u);
}

TEST(ServerBank, DepartsBeforeTheClockInDepartureThenAdmissionOrder) {
  ServerBank bank(3);
  bank.admit(0, 0.0, 4.0, 0);  // departs 4
  bank.admit(1, 0.0, 2.0, 1);  // departs 2
  bank.admit(2, 0.0, 3.0, 2);  // departs 3
  bank.admit(1, 1.0, 2.0, 3);  // queued behind user 1: departs 4
  std::vector<std::size_t> order;
  const auto record = [&order](const ServerBank::Job& job) {
    order.push_back(job.user);
  };
  bank.depart_before(2.0, record);  // strictly before 2: nothing
  EXPECT_TRUE(order.empty());
  bank.depart_before(3.5, record);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2}));
  // Users 0 and 3 both depart at 4: admission order breaks the tie.
  bank.depart_before(10.0, record);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0, 3}));
  bank.depart_before(100.0, record);
  EXPECT_EQ(order.size(), 4u);
}

TEST(ServerBank, RingsKeepFifoOrderThroughWrapAndGrowth) {
  ServerBank bank(2);
  std::vector<std::size_t> order;
  const auto record = [&order](const ServerBank::Job& job) {
    order.push_back(job.user);
  };
  // Wrap server 0's ring: 10 jobs, 6 of them departed, then 40 more
  // queued behind the rest, which grows the ring twice while wrapped.
  std::size_t user = 0;
  for (; user < 10; ++user) {
    bank.admit(0, 0.0, 1.0, user);  // departs user + 1
  }
  bank.depart_before(6.5, record);
  for (; user < 50; ++user) {
    bank.admit(0, 6.5, 1.0, user);
  }
  bank.admit(1, 6.5, 100.0, 999);
  for (const ServerBank::Job& job : drain_all(bank)) order.push_back(job.user);
  ASSERT_EQ(order.size(), 51u);
  for (std::size_t k = 0; k < 50; ++k) EXPECT_EQ(order[k], k);
  EXPECT_EQ(order[50], 999u);
}

TEST(ServerBank, RejectsServiceTimesThatAreNotFiniteAndPositive) {
  ServerBank bank(1);
  for (const double bad : {0.0, -0.0, -1.0,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(bank.admit(0, 0.0, bad, 0), std::invalid_argument)
        << bad;
  }
  // A rejected job leaves the server idle.
  EXPECT_EQ(bank.admit(0, 1.0, 1.0, 0).start, 1.0);
}

}  // namespace
}  // namespace nashlb::des
