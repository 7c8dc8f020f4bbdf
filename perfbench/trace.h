// Outside-in tracing for the benchmark: spans around calls into the
// library's public functions, plus a heap-allocation counter.
//
// The library is not instrumented. Every span lives in the benchmark's own
// files and wraps one call (or one loop of calls) into a src/ module, so a
// span name is "<module>.<stage>". Untraced runs give spans a null
// SpanStat and pay one branch per span.
//
// The allocation counter replaces the global operator new (trace.cc). It
// counts only while armed, into one slot per thread; a span reads either
// its own thread's slot (work that runs on the calling thread) or the sum
// of every slot (a span that wraps a parallel region, where the calling
// thread waits while pool workers allocate).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

// Starts/stops allocation counting for the whole process.
void arm_alloc_counter(bool armed);
// Allocations counted on the calling thread / on all threads so far.
std::uint64_t thread_allocations();
std::uint64_t process_allocations();

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

// Totals of one layer boundary over a run, from any number of threads.
struct SpanStat {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> allocs{0};

  double ms() const { return static_cast<double>(ns.load()) / 1e6; }
  double allocs_per_call() const {
    const std::uint64_t n = calls.load();
    return n == 0 ? 0.0 : static_cast<double>(allocs.load()) /
                              static_cast<double>(n);
  }
};

// Named span totals of one traced run. Entries are created serially,
// before any parallel region uses them; references to them stay valid.
using Trace = std::map<std::string, SpanStat>;

// Times one call into a layer. `parallel` spans wrap a thread-pool region
// and count allocations on every thread.
class Span {
 public:
  explicit Span(SpanStat* stat, bool parallel = false)
      : stat_(stat), parallel_(parallel) {
    if (stat_ == nullptr) return;
    allocs_at_start_ = parallel_ ? process_allocations() : thread_allocations();
    start_ = Clock::now();
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early; returns its duration in nanoseconds (0 untraced).
  std::uint64_t stop() {
    if (stat_ == nullptr) return 0;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
    const std::uint64_t allocs =
        (parallel_ ? process_allocations() : thread_allocations()) -
        allocs_at_start_;
    stat_->ns += ns;
    stat_->calls += 1;
    stat_->allocs += allocs;
    stat_ = nullptr;
    return ns;
  }

 private:
  SpanStat* stat_;
  bool parallel_;
  std::uint64_t allocs_at_start_ = 0;
  Clock::time_point start_;
};

}  // namespace perfbench
