// Heap-allocation counting for the test_allocations binary.
//
// alloc_counter.cpp replaces the global allocation and deallocation
// functions with a malloc passthrough that counts every allocation. It
// is compiled into test_allocations alone, so every other test binary
// keeps the standard allocator. The binary runs no pool with more than
// one worker, so the count is a plain integer.
#pragma once

#include <cstddef>

namespace nashlb::test_support {

/// Heap allocations made so far by this process.
[[nodiscard]] std::size_t allocation_count() noexcept;

/// Heap allocations made while `fn()` runs.
template <class Fn>
[[nodiscard]] std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = allocation_count();
  fn();
  return allocation_count() - before;
}

}  // namespace nashlb::test_support
