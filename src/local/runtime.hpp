// Execution runtime for the flat engine: the one owner of worker threads.
//
// A Runtime holds the persistent worker pool and the spill arenas it
// feeds.  Every FlatEngine runs on one: a standalone engine owns a private
// Runtime sized to its worker count, and many engine sessions can share
// ONE per process instead of N pools fighting over the same cores:
//
//   * the pool is spawned lazily, on the first parallel phase any borrowing
//     engine runs — a process that only ever runs serial sessions spawns
//     nothing, a run whose nodes all halt at init spawns nothing, and
//     `pool_spawns()` is the regression gauge that N sessions spawn it
//     exactly once (tests/test_service.cpp);
//   * a session borrows the runtime for the duration of one round step
//     (`mutex()`): the send and receive phases of a step share spill-arena
//     state, so the borrow must span the whole step, not just one phase;
//   * the spill arenas are shared for the same reason the pool is — they
//     are round-scoped scratch (cleared at the top of every step, read only
//     within it), so per-engine copies would multiply the steady-state
//     footprint by the session count for no benefit.
//
// The pool itself (`WorkerPool`, constructed only here) is the flat
// engine's persistent phase-dispatch pool: threads park on a condition
// variable between phases, dispatch is a generation counter under one
// mutex, and the first exception from any worker wins — deliberately
// boring mutex-and-condvar synchronisation so the ThreadSanitizer CI leg
// can vouch for the whole stack, scheduler included.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dmm::local {

/// Hard cap on runtime workers: the flat engine's spill-arena index is one
/// byte (flat_engine.hpp packs it into the slot payload).
inline constexpr int kMaxRuntimeWorkers = 256;

/// Persistent phase-dispatch pool: `spawn` threads are created once and
/// parked on a condition variable; every run() call wakes them for one
/// phase and the calling thread participates as worker 0.  Dispatch is a
/// generation counter (seq_) under one mutex — deliberately boring,
/// mutex-and-condvar-only synchronisation so the ThreadSanitizer leg can
/// vouch for it.  The first exception from any worker (including worker 0)
/// wins and is rethrown on the calling thread after the phase barrier,
/// preserving the serial engine's fail-fast contract.
class WorkerPool {
 public:
  explicit WorkerPool(int spawn) {
    threads_.reserve(static_cast<std::size_t>(spawn));
    for (int i = 0; i < spawn; ++i) {
      threads_.emplace_back([this, id = i + 1] { worker_main(id); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t spawned() const noexcept { return threads_.size(); }

  /// Runs fn(worker) for every worker id in [0, spawned()]: id 0 inline on
  /// the calling thread, the rest on the parked pool threads.  Returns
  /// only after every worker finished the phase.
  template <class F>
  void run(F& fn) {
    struct Thunk {
      static void call(void* ctx, int worker) { (*static_cast<F*>(ctx))(worker); }
    };
    dispatch(&Thunk::call, &fn);
  }

 private:
  void dispatch(void (*call)(void*, int), void* ctx) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      call_ = call;
      ctx_ = ctx;
      error_ = nullptr;
      remaining_ = static_cast<int>(threads_.size());
      ++seq_;
    }
    cv_work_.notify_all();
    try {
      call(ctx, 0);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
    if (error_) {
      const std::exception_ptr error = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

  void worker_main(int id) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_work_.wait(lock, [&] { return stop_ || seq_ != seen; });
      if (stop_) return;
      seen = seq_;
      void (*const call)(void*, int) = call_;
      void* const ctx = ctx_;
      lock.unlock();
      std::exception_ptr error;
      try {
        call(ctx, id);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !error_) error_ = error;
      if (--remaining_ == 0) cv_done_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  void (*call_)(void*, int) = nullptr;
  void* ctx_ = nullptr;
  std::exception_ptr error_;
  std::uint64_t seq_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
};

/// One pool (and one set of spill arenas) for the engines that run on it:
/// a standalone engine's private one, or one shared by many sessions.
///
/// Borrow discipline: a session holds `mutex()` for the duration of one
/// round step (the flat engine takes it in step_round).  The shared spill
/// arenas make the full-step span necessary — a spilled payload written in
/// the send phase is read in the same step's receive phase, and the next
/// session's step clears the arenas.  Slots themselves are per-engine, so
/// nothing a session writes outlives its own step except its own state.
class Runtime {
 public:
  /// `threads` is the worker budget for parallel phases (clamped to
  /// [1, kMaxRuntimeWorkers]); 1 means every borrowing session runs its
  /// phases inline and no pool is ever spawned.
  explicit Runtime(int threads);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int threads() const noexcept { return threads_; }

  /// Lazily spawns the shared pool.  Returns the number of worker threads
  /// created by THIS call — threads() - 1 on the first call that needs a
  /// pool, 0 on every later call — which is how a borrowing engine folds
  /// the one-time spawn into its own RunResult::threads_spawned without
  /// double counting across sessions.
  std::size_t ensure_pool();

  /// The shared pool; non-null once ensure_pool() ran with threads() > 1.
  WorkerPool* pool() noexcept { return pool_.get(); }

  /// Per-worker spill arenas, one per worker id in [0, threads()), shared
  /// by every borrowing engine (round-scoped scratch; see the borrow
  /// discipline above).
  std::vector<std::vector<char>>& arenas() noexcept { return arenas_; }

  /// The borrow lock: held by a session for one full round step.
  std::mutex& mutex() noexcept { return mu_; }

  /// Number of pool-spawn events so far.  The whole point of the runtime is
  /// that this stays at most 1 no matter how many sessions run
  /// (tests/test_service.cpp pins it).
  std::uint64_t pool_spawns() const;

  /// Total worker threads ever created by this runtime (threads() - 1 once
  /// the pool exists, 0 before).
  std::size_t threads_spawned() const;

 private:
  int threads_;
  std::mutex mu_;                 // the borrow lock (one stepping session at a time)
  mutable std::mutex spawn_mu_;   // guards pool_ creation and the gauges
  std::unique_ptr<WorkerPool> pool_;
  std::vector<std::vector<char>> arenas_;
  std::uint64_t pool_spawns_ = 0;
};

}  // namespace dmm::local
