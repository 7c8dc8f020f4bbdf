// Counting-allocator hook: the runtime ground truth behind ORIGIN_HOT.
//
// Linking alloc_guard.cc into a binary replaces the global operator
// new/delete family with thin wrappers over malloc/free that bump
// per-thread counters. AllocGuard snapshots the calling thread's counters
// at construction; allocations()/bytes() report the delta since. Because
// the object files live in repro_util but the replacement operators are
// only pulled in when a translation unit references AllocGuard (or calls
// util::alloc_hook_touch()), binaries that never use the guard keep the
// stock allocator.
//
// The counters are thread-local: a guard only observes allocations made on
// its own thread. Measure batch APIs at threads == 1 (the serial inline
// path), where every allocation lands on the caller. A relaxed process-wide
// total runs alongside them (process_alloc_counts()) for benches that time
// a multi-threaded region and want every thread's allocations in one delta.
//
// This is what turns "~0 allocs/page warm" from a bench note into a
// failing test (DESIGN.md §11): warm the scratch arenas with one batch,
// arm a guard, replay again, and assert the marginal count per page is
// zero.
#pragma once

#include <cstdint>

namespace origin::util {

struct AllocCounts {
  std::uint64_t allocations = 0;  // operator new / new[] calls
  std::uint64_t bytes = 0;        // sum of requested sizes
};

// Counters for the calling thread since thread start.
AllocCounts thread_alloc_counts();

// Counters summed over every thread since process start.
AllocCounts process_alloc_counts();

// Forces the linker to pull in the replacement operators (any reference
// into alloc_guard.cc does); returns true so callers can assert on it.
bool alloc_hook_touch();

class AllocGuard {
 public:
  AllocGuard() : start_(thread_alloc_counts()) {}

  // Allocations on this thread since the guard was constructed.
  std::uint64_t allocations() const {
    return thread_alloc_counts().allocations - start_.allocations;
  }
  std::uint64_t bytes() const {
    return thread_alloc_counts().bytes - start_.bytes;
  }

  // Re-baselines the guard to "now".
  void reset() { start_ = thread_alloc_counts(); }

 private:
  AllocCounts start_;
};

}  // namespace origin::util
