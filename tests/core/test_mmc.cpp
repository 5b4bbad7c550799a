// M/M/c closed forms through core::MMCDelay, the multi-core computer of
// the generalized game: the Erlang-C probability and the pooling facts.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/delay_model.hpp"

namespace nashlb::core {
namespace {

/// The Erlang-C wait probability read back from the M/M/c response time
/// T = C(c, a) / (c mu - lambda) + 1/mu, here with mu = 1 so lambda = a.
double erlang_c(unsigned servers, double offered_load) {
  const double t = MMCDelay(1.0, servers).response_time(offered_load);
  return (t - 1.0) * (static_cast<double>(servers) - offered_load);
}

TEST(ErlangC, RejectsBadInputs) {
  EXPECT_THROW(static_cast<void>(erlang_c(0, 0.5)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(erlang_c(2, 2.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(erlang_c(2, -0.1)), std::invalid_argument);
}

TEST(ErlangC, ZeroLoadNeverWaits) {
  EXPECT_DOUBLE_EQ(erlang_c(3, 0.0), 0.0);
}

TEST(ErlangC, SingleServerIsRho) {
  // For c = 1 the wait probability is the server utilization.
  for (double a : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(erlang_c(1, a), a, 1e-12);
  }
}

TEST(ErlangC, KnownTextbookValue) {
  // Classic call-centre example: c = 2, a = 1 -> C = 1/3.
  EXPECT_NEAR(erlang_c(2, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(ErlangC, MonotoneInLoad) {
  double prev = 0.0;
  for (double a = 0.2; a < 3.9; a += 0.2) {
    const double c = erlang_c(4, a);
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(ErlangC, BoundedInUnitInterval) {
  for (unsigned c = 1; c <= 16; ++c) {
    for (double frac : {0.1, 0.5, 0.9, 0.99}) {
      const double p = erlang_c(c, frac * c);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(MMC, RejectsUnstable) {
  EXPECT_THROW(static_cast<void>(MMCDelay(2.0, 2).response_time(4.0)),
               std::invalid_argument);
  EXPECT_THROW(MMCDelay(2.0, 0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(MMCDelay(2.0, 2).response_time(-1.0)),
               std::invalid_argument);
}

TEST(MMC, SingleServerMatchesMM1) {
  EXPECT_NEAR(MMCDelay(5.0, 1).response_time(3.0),
              MM1Delay(5.0).response_time(3.0), 1e-12);
}

TEST(MMC, PoolingBeatsSplitQueues) {
  // A classic queueing fact: one M/M/2 beats two separate M/M/1s at the
  // same total load and capacity.
  const double lambda = 3.0;
  const MMCDelay pooled(2.0, 2);
  const MM1Delay split(2.0);
  EXPECT_LT(pooled.response_time(lambda), split.response_time(lambda / 2.0));
}

TEST(MMC, FastSingleServerBeatsManySlow) {
  // ...but one fast M/M/1 of equal capacity beats the M/M/c pool.
  const double lambda = 3.0;
  const MMCDelay pool(1.0, 4);
  const MM1Delay fast(4.0);
  EXPECT_LT(fast.response_time(lambda), pool.response_time(lambda));
}

TEST(MMC, ResponseDivergesNearSaturation) {
  EXPECT_GT(MMCDelay(2.0, 4).response_time(7.999), 100.0);
}

}  // namespace
}  // namespace nashlb::core
