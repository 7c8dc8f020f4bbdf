// Fixed-size worker pool with one shared job queue.
//
// The corpus pipeline (generate -> load -> model -> aggregate) is
// embarrassingly parallel across sites, so the one primitive everything
// shards through is `parallel_for_index(n, body)`: run body(0..n-1) on the
// pool and return when all indices finished. Determinism rules:
//
//   * The MERGE IS THE CALLER'S INDEX SPACE. body(i) writes results[i];
//     nothing is ever keyed by completion order, so output is bit-identical
//     at any thread count (the pipeline_determinism_test gate).
//   * body(i) must not touch shared mutable state; everything it reads from
//     `this`-adjacent structures must be immutable for the duration of the
//     region (the clang thread-safety annotations and the TSan preset both
//     check the pool itself; discipline at call sites is enforced by
//     per-site RNG prepasses and atomic counters in the substrate).
//
// Scheduling: one job slot under one mutex. The index range is cut into
// min(n, 4 x threads) contiguous chunks, and each idle worker claims the
// next chunk in index order, runs it outside the lock and counts it done;
// the last finisher wakes the caller, which waits and runs no bodies. A
// worker that finishes a cheap chunk simply claims another, so skewed
// per-index costs (page loads vary by two orders of magnitude between a
// 3-resource tail site and a 600-resource shard farm) level out without
// per-worker queues: at ~4 chunks per worker the lock is taken a few dozen
// times per job. Workers are persistent, so thread-local scratch and
// per-thread counters see the same threads from job to job. Concurrent
// callers of one pool take turns: a second caller waits until the job in
// the slot has finished.
//
// Error handling: the first exception thrown by any body() is captured and
// rethrown from parallel_for_index on the calling thread; remaining chunks
// are drained without running user code. Nested parallel_for_index calls
// (from inside a body) throw std::logic_error — nesting would deadlock a
// fixed pool, and no call site legitimately needs it.
//
// Thread count: ThreadPool(0) reads the ORIGIN_THREADS environment
// variable; unset or invalid falls back to std::thread::hardware_concurrency.
// A pool of 1 runs bodies inline on the caller with no worker threads — the
// serial fallback path (ORIGIN_THREADS=1) every determinism gate compares
// against.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace origin::util {

// Annotated condition variable companion to util::Mutex. Built on
// condition_variable_any so it waits directly on the annotated mutex; the
// REQUIRES contract makes the analysis verify callers hold the lock.
class CondVar {
 public:
  void wait(Mutex& mu) ORIGIN_REQUIRES(mu) { cv_.wait(mu); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

// Thread count that `0` resolves to: ORIGIN_THREADS if set and positive,
// else hardware concurrency (min 1). Read once; the env var is process
// configuration, not a runtime knob.
std::size_t configured_thread_count();

// 0 -> configured_thread_count(), anything else passes through.
std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
 public:
  // threads == 0 resolves via ORIGIN_THREADS / hardware concurrency.
  // threads == 1 creates no workers; parallel_for_index runs inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return thread_count_; }

  // Runs body(0) .. body(n-1), returning once all completed. Rethrows the
  // first body exception. Throws std::logic_error when called from inside
  // another parallel_for_index body (on this or any pool).
  void parallel_for_index(std::size_t n,
                          const std::function<void(std::size_t)>& body);

 private:
  void worker_loop() ORIGIN_EXCLUDES(mu_);

  std::size_t thread_count_ = 1;
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar work_cv_;  // workers: "a chunk is claimable" / "shut down"
  CondVar done_cv_;  // callers: "the last chunk finished" / "slot is free"
  bool shutdown_ ORIGIN_GUARDED_BY(mu_) = false;
  // The job slot. A chunk is claimable while next_ < n_; outstanding_
  // counts chunks not yet finished; busy_ holds the slot for one caller.
  const std::function<void(std::size_t)>* body_ ORIGIN_GUARDED_BY(mu_) =
      nullptr;
  std::size_t n_ ORIGIN_GUARDED_BY(mu_) = 0;
  std::size_t chunk_size_ ORIGIN_GUARDED_BY(mu_) = 1;
  std::size_t next_ ORIGIN_GUARDED_BY(mu_) = 0;
  std::size_t outstanding_ ORIGIN_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ ORIGIN_GUARDED_BY(mu_);
  bool busy_ ORIGIN_GUARDED_BY(mu_) = false;
};

}  // namespace origin::util
