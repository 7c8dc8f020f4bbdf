#include "trace.h"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One counter slot per thread that allocates while armed. Slots are a
// fixed static array so that claiming one never allocates (this code runs
// inside operator new). Each slot has a single writer, its thread, so a
// relaxed load+store is enough; readers sum with relaxed loads. Threads
// past the last slot share it through an atomic add.
constexpr std::size_t kSlots = 4096;
std::atomic<std::uint64_t> g_slots[kSlots];
std::atomic<std::size_t> g_slots_used{0};
std::atomic<bool> g_armed{false};
thread_local std::size_t t_slot = kSlots;  // kSlots: not claimed yet

std::atomic<std::uint64_t>& my_slot() {
  if (t_slot == kSlots) {
    const std::size_t claimed = g_slots_used.fetch_add(1);
    t_slot = std::min(claimed, kSlots - 1);
  }
  return g_slots[t_slot];
}

void count_allocation() {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  std::atomic<std::uint64_t>& slot = my_slot();
  if (t_slot == kSlots - 1) {
    slot.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  count_allocation();
  // malloc(0) may return nullptr; operator new must not.
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_allocation();
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void arm_alloc_counter(bool armed) { g_armed.store(armed); }

std::uint64_t thread_allocations() {
  if (t_slot == kSlots) return 0;
  return g_slots[t_slot].load(std::memory_order_relaxed);
}

std::uint64_t process_allocations() {
  const std::size_t used = std::min(g_slots_used.load(), kSlots);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < used; ++i) {
    total += g_slots[i].load(std::memory_order_relaxed);
  }
  return total;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench

// --- global allocation functions -------------------------------------------

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
