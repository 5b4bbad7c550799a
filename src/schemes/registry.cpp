#include "schemes/registry.hpp"

#include <stdexcept>

#include "schemes/gos.hpp"
#include "schemes/ios.hpp"
#include "schemes/nash.hpp"
#include "schemes/nbs.hpp"
#include "schemes/ps.hpp"

namespace nashlb::schemes {

std::vector<SchemePtr> paper_schemes(double nash_tolerance) {
  return {
      std::make_shared<NashScheme>(core::Initialization::Proportional,
                                   nash_tolerance),
      std::make_shared<GlobalOptimalScheme>(GosSplit::GreedyFill),
      std::make_shared<IndividualOptimalScheme>(),
      std::make_shared<ProportionalScheme>(),
  };
}

SchemePtr make_scheme(const std::string& name) {
  if (name == "NASH" || name == "NASH_P") {
    return std::make_shared<NashScheme>(core::Initialization::Proportional);
  }
  if (name == "NASH_0") {
    return std::make_shared<NashScheme>(core::Initialization::Zero);
  }
  if (name == "GOS") {
    return std::make_shared<GlobalOptimalScheme>(GosSplit::GreedyFill);
  }
  if (name == "GOS_UNIFORM") {
    return std::make_shared<GlobalOptimalScheme>(GosSplit::Uniform);
  }
  if (name == "IOS") return std::make_shared<IndividualOptimalScheme>();
  if (name == "PS") return std::make_shared<ProportionalScheme>();
  if (name == "NBS") return std::make_shared<NbsScheme>();
  throw std::invalid_argument("make_scheme: unknown scheme '" + name + "'");
}

}  // namespace nashlb::schemes
