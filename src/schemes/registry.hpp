// Factory for the paper's comparison set (§4.2) and named lookup for
// benches and examples.
#pragma once

#include <vector>

#include "schemes/scheme.hpp"

namespace nashlb::schemes {

/// The four schemes of the paper's evaluation in the order the figures
/// list them: NASH (NASH_P variant), GOS (GreedyFill split), IOS, PS.
[[nodiscard]] std::vector<SchemePtr> paper_schemes(double nash_tolerance =
                                                       1e-4);

/// Lookup by display name ("NASH", "NASH_0", "NASH_P", "GOS",
/// "GOS_UNIFORM", "IOS", "PS", "NBS"); throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] SchemePtr make_scheme(const std::string& name);

}  // namespace nashlb::schemes
