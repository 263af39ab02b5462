// Work-stealing thread pool for embarrassingly parallel index spaces.
//
// The sweep engine runs many independent (design point, injection rate, seed)
// simulations and quality trials. Each run_indexed() call executes body(i)
// for every i in [0, count) exactly once: the index space is split into one
// contiguous shard per thread, each thread drains its own shard first and
// then steals indices from other shards, so uneven task durations (a
// saturated simulation can take 100x longer than an unloaded one) do not
// leave threads idle.
//
// Determinism contract: the pool guarantees only *which* indices run, never
// in what order or on which thread. Callers obtain bit-identical results
// across thread counts by making body(i) a pure function of i that writes to
// a caller-owned slot i (see parallel_map in sweep.hpp) and by deriving all
// randomness from counter-based seeds (see task_seed), never from shared
// mutable state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nocalloc::sweep {

class ThreadPool {
 public:
  /// Creates a pool that runs work on `threads` threads in total, including
  /// the caller of run_indexed (so `threads - 1` workers are spawned).
  /// `threads == 0` selects default_threads(). A pool of size 1 spawns no
  /// threads and executes run_indexed inline as a plain serial loop.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total number of threads that execute work (workers + caller).
  std::size_t size() const { return workers_.size() + 1; }

  /// Executes body(i) for every i in [0, count) exactly once, distributed
  /// over the pool, and returns once all indices completed. If any body call
  /// throws, the first exception is rethrown here after all threads have
  /// stopped picking up new indices. Not reentrant: body must not call
  /// run_indexed on the same pool.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& body);

  /// Thread count used when none is given: the NOCALLOC_THREADS environment
  /// variable if set, else hardware concurrency (falling back to 1 when
  /// unknown). A value that is not a whole integer >= 1 aborts with a
  /// message naming the variable and the value.
  static std::size_t default_threads();

 private:
  // One contiguous chunk of the index space; `next` may overshoot `end` by
  // concurrent steal probes, which is harmless (probes just fail).
  struct Shard {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  void worker_loop(std::size_t self);
  void work(std::size_t self);
  void record_exception();

  std::vector<std::thread> workers_;
  // Raw array because Shard's atomic makes it non-movable.
  std::unique_ptr<Shard[]> shards_;
  std::size_t nshards_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;        // incremented per run_indexed call
  std::size_t workers_busy_ = 0;   // workers still draining the current epoch
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace nocalloc::sweep
