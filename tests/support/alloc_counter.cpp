#include "support/alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

std::size_t g_alloc_count = 0;

void* count_alloc(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return count_alloc(n); }
void* operator new[](std::size_t n) { return count_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nashlb::test_support {

std::size_t allocation_count() noexcept { return g_alloc_count; }

}  // namespace nashlb::test_support
