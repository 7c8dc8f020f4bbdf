// Replacement global operator new/delete family counting every allocation
// into thread-local counters (see alloc_guard.h for the linking contract).
//
// The wrappers stay deliberately dumb: malloc/posix_memalign underneath, a
// bad_alloc throw on exhaustion, no new_handler loop. Under ASan/TSan the
// underlying malloc is the sanitizer's interceptor, so leak and race
// checking keep working through the hook; the per-thread counters are
// thread-local and race-free by construction, and the process totals are
// relaxed atomics.
#include "util/alloc_guard.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace origin::util {

namespace {

thread_local AllocCounts tl_counts;
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

inline void count(std::size_t size) {
  ++tl_counts.allocations;
  tl_counts.bytes += size;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) {
  count(size);
  // malloc(0) may return nullptr legally; operator new must not.
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  count(size);
  void* p = nullptr;
  if (align < alignof(void*)) align = alignof(void*);
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

AllocCounts thread_alloc_counts() { return tl_counts; }

AllocCounts process_alloc_counts() {
  return {g_allocations.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

bool alloc_hook_touch() { return true; }

}  // namespace origin::util

// --- replacement operators (global scope, one definition per program) ----

void* operator new(std::size_t size) {
  return origin::util::counted_alloc(size);
}

void* operator new[](std::size_t size) {
  return origin::util::counted_alloc(size);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return origin::util::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return origin::util::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  return origin::util::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return origin::util::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
