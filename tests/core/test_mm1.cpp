// M/M/1 closed forms through core::MM1Delay, the paper's computer model:
// the sojourn time T = 1/(mu - lambda) (Kleinrock, the paper's [9]) and
// the stability rejections.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/delay_model.hpp"

namespace nashlb::core {
namespace {

TEST(MM1, RejectsUnstableOrInvalid) {
  const MM1Delay unit(1.0);
  EXPECT_THROW(static_cast<void>(unit.response_time(1.0)),
               std::invalid_argument);  // lambda == mu
  EXPECT_THROW(static_cast<void>(unit.response_time(2.0)),
               std::invalid_argument);  // lambda > mu
  EXPECT_THROW(static_cast<void>(unit.response_time(-0.1)),
               std::invalid_argument);  // negative lambda
  EXPECT_THROW(MM1Delay(0.0), std::invalid_argument);  // zero mu
  EXPECT_THROW(MM1Delay(-1.0), std::invalid_argument);
}

TEST(MM1, KleinrockTextbookValues) {
  // lambda = 8, mu = 10: T = 0.5.
  EXPECT_DOUBLE_EQ(MM1Delay(10.0).response_time(8.0), 0.5);
}

TEST(MM1, EmptyQueueIsJustService) {
  EXPECT_DOUBLE_EQ(MM1Delay(4.0).response_time(0.0), 0.25);  // pure service
}

TEST(MM1, ResponseTimeDivergesNearSaturation) {
  EXPECT_GT(MM1Delay(10.0).response_time(9.999), 999.0);
}

}  // namespace
}  // namespace nashlb::core
