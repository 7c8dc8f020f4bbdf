// util::ThreadPool: correctness under contention, exception propagation,
// and the nested-region guard. Run under the TSan preset
// (-DORIGIN_SANITIZE=thread) these tests double as the data-race gate for
// the pool itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace origin {
namespace {

TEST(ThreadPool, ResolvesThreadCounts) {
  EXPECT_GE(util::configured_thread_count(), 1u);
  EXPECT_EQ(util::resolve_thread_count(1), 1u);
  EXPECT_EQ(util::resolve_thread_count(7), 7u);
  EXPECT_EQ(util::resolve_thread_count(0), util::configured_thread_count());
}

TEST(ThreadPool, SerialPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> out(100, 0);
  pool.parallel_for_index(out.size(), [&](std::size_t i) { out[i] = i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  util::ThreadPool pool(8);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_index(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ContendedQueueBalancesSkewedWork) {
  // Heavily skewed per-index cost: a few indices dominate, so finishing in
  // reasonable time requires idle workers to keep claiming the remaining
  // chunks. Correctness is still exact per-index output.
  util::ThreadPool pool(8);
  constexpr std::size_t kN = 2'000;
  std::vector<std::uint64_t> out(kN, 0);
  std::atomic<std::size_t> ran{0};
  pool.parallel_for_index(kN, [&](std::size_t i) {
    std::uint64_t acc = i;
    const std::size_t spins = (i % 97 == 0) ? 200'000 : 50;
    for (std::size_t s = 0; s < spins; ++s) acc = acc * 6364136223846793005ULL + 1;
    out[i] = acc;
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), kN);
  // Recompute serially: parallel result must match exactly.
  for (std::size_t i = 0; i < kN; i += 191) {
    std::uint64_t acc = i;
    const std::size_t spins = (i % 97 == 0) ? 200'000 : 50;
    for (std::size_t s = 0; s < spins; ++s) acc = acc * 6364136223846793005ULL + 1;
    EXPECT_EQ(out[i], acc) << "index " << i;
  }
}

TEST(ThreadPool, SequentialJobsReuseWorkers) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for_index(64, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

TEST(ThreadPool, ConcurrentCallersTakeTurns) {
  // Several threads share one pool: each job must still see every one of its
  // own indices exactly once, whatever the interleaving of callers.
  util::ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  constexpr int kJobs = 25;
  std::vector<int> bad_jobs(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &bad_jobs, c] {
      for (int job = 0; job < kJobs; ++job) {
        const std::size_t n = 50 + 13 * c + static_cast<std::size_t>(job);
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for_index(n, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& hit : hits) {
          if (hit.load() != 1) {
            ++bad_jobs[c];
            break;
          }
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(bad_jobs[c], 0) << "caller " << c;
  }
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  util::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for_index(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstBodyException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_index(500,
                              [&](std::size_t i) {
                                if (i == 137) {
                                  throw std::runtime_error("body failed");
                                }
                              }),
      std::runtime_error);
  // The pool survives a failed job: the next job runs normally.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for_index(100, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 100u);
}

TEST(ThreadPool, SerialPathPropagatesExceptionsToo) {
  util::ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for_index(
                   10,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("inline failure");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForIsRejected) {
  util::ThreadPool outer(4);
  util::ThreadPool inner(2);
  std::atomic<int> nested_rejections{0};
  outer.parallel_for_index(16, [&](std::size_t) {
    try {
      inner.parallel_for_index(4, [](std::size_t) {});
    } catch (const std::logic_error&) {
      nested_rejections.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(nested_rejections.load(), 16);
}

TEST(ThreadPool, NestedRejectionAppliesOnSerialPoolsToo) {
  // The serial inline path is still a parallel region for nesting purposes:
  // determinism contracts must not depend on the configured thread count.
  util::ThreadPool outer(1);
  util::ThreadPool inner(1);
  int nested_rejections = 0;
  outer.parallel_for_index(3, [&](std::size_t) {
    try {
      inner.parallel_for_index(2, [](std::size_t) {});
    } catch (const std::logic_error&) {
      ++nested_rejections;
    }
  });
  EXPECT_EQ(nested_rejections, 3);
}

}  // namespace
}  // namespace origin
