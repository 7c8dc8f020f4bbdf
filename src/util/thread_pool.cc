#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace origin::util {

namespace {

// Nesting sentinel: set for the duration of any body() execution, on worker
// threads and on the caller in the serial path alike.
thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  RegionGuard() { tl_in_parallel_region = true; }
  ~RegionGuard() { tl_in_parallel_region = false; }
};

}  // namespace

std::size_t configured_thread_count() {
  static const std::size_t count = [] {
    // Process configuration, read once before any pool exists (so the read
    // itself never races worker startup).
    if (const char* env = std::getenv("ORIGIN_THREADS")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && parsed >= 1 && parsed <= 1024) {
        return static_cast<std::size_t>(parsed);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return count;
}

std::size_t resolve_thread_count(std::size_t requested) {
  return requested == 0 ? configured_thread_count() : requested;
}

ThreadPool::ThreadPool(std::size_t threads)
    : thread_count_(resolve_thread_count(threads)) {
  if (thread_count_ <= 1) {
    thread_count_ = 1;
    return;  // serial pool: no workers, bodies run inline on the caller
  }
  threads_.reserve(thread_count_);
  for (std::size_t i = 0; i < thread_count_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::parallel_for_index(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (tl_in_parallel_region) {
    throw std::logic_error(
        "nested parallel_for_index: bodies must not fan out again (a fixed "
        "pool would deadlock); restructure as one flat index space");
  }
  if (n == 0) return;
  if (thread_count_ == 1 || n == 1) {
    // Serial fallback (ORIGIN_THREADS=1): same index order a caller-side
    // merge sees from the parallel path, byte for byte.
    RegionGuard region;
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // ~4 chunks per worker: coarse enough that lock traffic is negligible,
  // fine enough that idle workers can level skewed per-index costs.
  const std::size_t target_chunks = std::min(n, thread_count_ * 4);
  const std::size_t chunk_size = (n + target_chunks - 1) / target_chunks;

  std::exception_ptr error;
  {
    MutexLock lock(&mu_);
    while (busy_) done_cv_.wait(mu_);  // another caller's job holds the slot
    busy_ = true;
    body_ = &body;
    n_ = n;
    chunk_size_ = chunk_size;
    next_ = 0;
    outstanding_ = (n + chunk_size - 1) / chunk_size;
    work_cv_.notify_all();
    while (outstanding_ != 0) done_cv_.wait(mu_);
    body_ = nullptr;
    error = std::exchange(first_error_, nullptr);
    busy_ = false;
  }
  done_cv_.notify_all();  // hand the slot to a waiting caller, if any
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && next_ >= n_) work_cv_.wait(mu_);
      if (shutdown_) return;
      begin = next_;
      end = std::min(n_, begin + chunk_size_);
      next_ = end;
      // After a failure the remaining chunks drain without running user code.
      if (first_error_ == nullptr) body = body_;
    }
    std::exception_ptr error;
    if (body != nullptr) {
      RegionGuard region;
      try {
        for (std::size_t i = begin; i < end; ++i) (*body)(i);
      } catch (...) {
        error = std::current_exception();
      }
    }
    MutexLock lock(&mu_);
    if (error != nullptr && first_error_ == nullptr) first_error_ = error;
    if (--outstanding_ == 0) done_cv_.notify_all();
  }
}

}  // namespace origin::util
