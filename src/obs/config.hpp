// The obs layer's compile-time master switch, shared by the two
// instrument headers (histogram, convergence) so they can select their
// enabled/no-op twin without including each other.
#pragma once

#ifndef NASHLB_OBS_ENABLED
#define NASHLB_OBS_ENABLED 1
#endif

namespace nashlb::obs {

/// Compile-time master switch; `if (obs::kEnabled && ...)` blocks are
/// dead-code-eliminated when the layer is disabled.
inline constexpr bool kEnabled = NASHLB_OBS_ENABLED != 0;

}  // namespace nashlb::obs
