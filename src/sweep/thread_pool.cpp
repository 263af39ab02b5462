#include "sweep/thread_pool.hpp"

#include <cstdlib>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace nocalloc::sweep {

std::size_t ThreadPool::default_threads() {
  if (const char* env = std::getenv("NOCALLOC_THREADS")) {
    const std::optional<std::size_t> v = parse_size(env, 1);
    if (!v) {
      fail("bad value '" + std::string(env) +
           "' for NOCALLOC_THREADS (expected an integer >= 1)");
    }
    return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  nshards_ = threads;
  shards_ = std::make_unique<Shard[]>(threads);
  for (std::size_t w = 1; w < threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::record_exception() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_error_) first_error_ = std::current_exception();
  // Stop all shards so other threads finish quickly; already-running body
  // calls complete normally.
  for (std::size_t w = 0; w < nshards_; ++w) {
    shards_[w].next.store(shards_[w].end, std::memory_order_relaxed);
  }
}

void ThreadPool::work(std::size_t self) {
  // Drain the own shard, then steal from the others in cyclic order.
  for (std::size_t k = 0; k < nshards_; ++k) {
    Shard& s = shards_[(self + k) % nshards_];
    for (;;) {
      const std::size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s.end) break;
      try {
        (*body_)(i);
      } catch (...) {
        record_exception();
      }
    }
  }
}

void ThreadPool::worker_loop(std::size_t self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock,
                    [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    work(self);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_busy_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;

  if (nshards_ == 1) {
    // Serial pool: a plain loop, no synchronization at all.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // Split [0, count) into one contiguous shard per thread. With fewer tasks
  // than threads the trailing shards are empty, which is fine.
  const std::size_t n = nshards_;
  const std::size_t base = count / n;
  const std::size_t extra = count % n;
  std::size_t at = 0;
  for (std::size_t w = 0; w < n; ++w) {
    const std::size_t len = base + (w < extra ? 1 : 0);
    shards_[w].next.store(at, std::memory_order_relaxed);
    shards_[w].end = at + len;
    at += len;
  }
  body_ = &body;

  {
    std::lock_guard<std::mutex> lock(mu_);
    first_error_ = nullptr;
    workers_busy_ = workers_.size();
    ++epoch_;
  }
  cv_work_.notify_all();

  work(0);  // the caller participates as thread 0

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return workers_busy_ == 0; });
    body_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }
}

}  // namespace nocalloc::sweep
