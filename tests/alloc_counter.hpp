// Counting replacement of the global allocator for allocation gates.
//
// Every operator new, including the array and nothrow forms that forward
// to it, bumps one counter, so a test can assert that a window of
// simulation performs zero heap allocations. The replacement functions
// are ordinary (non-inline) definitions, as the standard requires, so
// exactly one translation unit per test binary may include this header;
// every test binary here is a single TU.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace qoesim::testutil {

inline std::atomic<std::uint64_t> g_allocations{0};

/// Allocations since program start; take differences around a window.
inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace qoesim::testutil

// Out of line, so that gcc's -Wmismatched-new-delete does not see malloc()
// and free() meet a new-expression once the replacements are inlined.
[[gnu::noinline]] void* operator new(std::size_t size) {
  qoesim::testutil::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
