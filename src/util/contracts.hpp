// Paper-invariant contract layer.
//
// The model of Grosu & Chronopoulos rests on explicit preconditions that
// the incremental solver core (core/load_state, the *_into fast paths)
// must preserve while mutating shared state in place:
//
//   * simplex membership   — s_ji >= 0 and sum_i s_ji = 1 per user,
//   * stability            — Phi < sum_i mu_i (assumption A2) and
//                            mu^j_i > 0 on every allocation's support,
//   * the Thm 2.1 cut rule — computers are active iff sqrt(c_i) > t
//                            under the decreasing-capacity order,
//   * load consistency     — the carried lambda tracks a from-scratch
//                            rebuild of the profile's loads.
//
// A silent break of any of these produces a plausible-but-wrong
// "equilibrium" rather than a crash, so the hot paths assert them with
// the macros below. Contracts are compiled to no-ops unless the build
// defines NASHLB_CHECK_ENABLED=1 (CMake: -DNASHLB_CHECK=ON), keeping the
// benchmarked configuration byte-for-byte free of checking overhead —
// docs/PERFORMANCE.md numbers are NASHLB_CHECK=OFF by definition.
//
// Naming follows the usual design-by-contract split:
//   NASHLB_EXPECT(cond, fmt, ...)    — precondition on entry,
//   NASHLB_ENSURE(cond, fmt, ...)    — postcondition on exit,
//   NASHLB_INVARIANT(cond, fmt, ...) — relation that must hold throughout.
// All three behave identically at runtime: on violation they print
// `NASHLB_<KIND> violated at file:line: (expr) message` to stderr and
// abort(). The printf-style message is mandatory — a contract that can
// fire must say which quantity went out of range and by how much.
// abort() (not exit/throw) keeps the failure ASan/UBSan-friendly: the
// sanitizer runtime flushes its report and the core dump points at the
// violating frame.
//
// Checked-build-only scaffolding (e.g. a scratch rebuild to diff
// against) goes under `#if NASHLB_CHECK_ENABLED` so disabled builds
// don't pay for it and -Werror doesn't flag unused locals.
#pragma once

#ifndef NASHLB_CHECK_ENABLED
#define NASHLB_CHECK_ENABLED 0
#endif

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace nashlb::util {

/// True in builds with active contracts (-DNASHLB_CHECK=ON).
inline constexpr bool kCheckEnabled = NASHLB_CHECK_ENABLED != 0;

/// Last-words hook, invoked by contract_fail after the violation report
/// is printed and flushed, immediately before abort(). The obs event
/// journal installs its flight-recorder dump here (obs::Journal::
/// install_crash_handler) so a contract breach carries the last N solver
/// events out with it. The hook runs on the failure path: it must be
/// noexcept and must not allocate. Null means "no hook".
using ContractFailureHook = void (*)() noexcept;

/// The single process-wide hook slot (assign to install, nullptr to
/// clear). A function-local static keeps util header-only and avoids any
/// static-init ordering with the instruments that install into it.
inline ContractFailureHook& contract_failure_hook() noexcept {
  static ContractFailureHook hook = nullptr;
  return hook;
}

/// Prints the violation report and aborts. Formats into a fixed stack
/// buffer — no allocation on the failure path, so a contract can fire
/// safely from out-of-memory or ASan-poisoned contexts.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 5, 6)))
#endif
[[noreturn]] inline void
contract_fail(const char* kind, const char* expr, const char* file, int line,
              const char* fmt, ...) noexcept {
  char message[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(message, sizeof message, fmt, args);
  va_end(args);
  std::fprintf(stderr, "NASHLB_%s violated at %s:%d: (%s) %s\n", kind, file,
               line, expr, message);
  std::fflush(stderr);
  if (ContractFailureHook hook = contract_failure_hook()) {
    hook();
    std::fflush(stderr);
  }
  std::abort();
}

}  // namespace nashlb::util

#if NASHLB_CHECK_ENABLED
#define NASHLB_CONTRACT_IMPL_(kind, cond, ...)                          \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::nashlb::util::contract_fail(kind, #cond, __FILE__, __LINE__,    \
                                    __VA_ARGS__);                       \
    }                                                                   \
  } while (false)
#else
// Disabled contracts still type-check the condition (so a variable read
// only by a contract stays "used") but never evaluate it: sizeof's
// operand is unevaluated, keeping contracts free when disabled.
#define NASHLB_CONTRACT_IMPL_(kind, cond, ...) \
  static_cast<void>(sizeof(!(cond)))
#endif

#define NASHLB_EXPECT(cond, ...) NASHLB_CONTRACT_IMPL_("EXPECT", cond, __VA_ARGS__)
#define NASHLB_ENSURE(cond, ...) NASHLB_CONTRACT_IMPL_("ENSURE", cond, __VA_ARGS__)
#define NASHLB_INVARIANT(cond, ...) \
  NASHLB_CONTRACT_IMPL_("INVARIANT", cond, __VA_ARGS__)
