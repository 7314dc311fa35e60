// A fixed-size worker pool with a shared work queue, used by the execution
// engine to run map/reduce tasks concurrently. Tasks are plain callables
// that must not throw: `ParallelFor` below and the engine's job driver
// convert exceptions into Status (the library's error-return convention)
// before they reach a worker thread.

#ifndef OPD_COMMON_THREAD_POOL_H_
#define OPD_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace opd {

/// \brief A fixed-size thread pool draining a FIFO work queue.
///
/// The pool starts its workers on construction and joins them on
/// destruction (after draining every queued task). Thread count is clamped
/// to at least 1; `ThreadPool::DefaultThreads()` maps the conventional
/// "0 means auto" knob to `hardware_concurrency`.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn`. It must not throw: an exception escaping a worker
  /// thread terminates the program. Callers that wait for it count down a
  /// CountdownLatch at its end.
  void Submit(std::function<void()> fn);

  /// Pops and runs one queued task on the calling thread; returns false
  /// without blocking when the queue is empty. This is how threads blocked
  /// on a CountdownLatch help drain the pool instead of idling — it also
  /// makes latch waits deadlock-free when pool tasks submit more tasks.
  bool TryRunOne();

  /// Resolves a `num_threads` option: values <= 0 mean "one per core".
  static int DefaultThreads(int requested);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// \brief A one-shot countdown that a waiter blocks on until a set of pool
/// tasks has finished (`ParallelFor`'s drains, the engine's job DAG).
///
/// Tasks call `CountDown()` as they finish; the thread that drives the
/// final count to zero observes `true`. `Wait()` blocks until the count
/// reaches zero, cooperatively running queued pool tasks while it waits so
/// the waiting thread keeps making progress on the very work it is waiting
/// for.
///
/// Destruction safety: once Wait() returns, every CountDown() call has
/// fully completed (all counter and cv access happens inside one critical
/// section, and Wait's final zero check goes through the same mutex), so a
/// task whose *last* action is CountDown() can never touch a latch its
/// waiter has already destroyed. CountDown is one mutex acquisition per
/// finishing task — nowhere near the hot path.
class CountdownLatch {
 public:
  explicit CountdownLatch(size_t count) : remaining_(count) {}

  CountdownLatch(const CountdownLatch&) = delete;
  CountdownLatch& operator=(const CountdownLatch&) = delete;

  /// Decrements the count by `n` (clamped at zero); returns true exactly
  /// once — for the call that reaches zero. All writes made before a
  /// CountDown() happen-before Wait() returns (the shared mutex orders
  /// them).
  bool CountDown(size_t n = 1);

  bool Done() const;

  /// Blocks until Done(). With a non-null `pool`, drains queued tasks on
  /// this thread while waiting instead of sleeping.
  void Wait(ThreadPool* pool = nullptr);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;  // guarded by mu_
};

/// \brief Runs `fn(0) .. fn(n-1)` as pool tasks and waits for all of them.
///
/// Error handling follows the engine's determinism contract: every index
/// runs to completion, each task's Status (or caught exception, converted to
/// `Status::Internal`) is recorded per index, and the *lowest-index* failure
/// is returned — so the reported error does not depend on thread timing.
///
/// With a null pool, a single-thread pool, or n <= 1, indices run inline on
/// the calling thread in order — byte-for-byte the serial behavior.
///
/// \param[out] max_task_seconds if non-null, receives the wall-clock time of
///   the slowest task (the simulated straggler of this task wave).
Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn,
                   double* max_task_seconds = nullptr);

}  // namespace opd

#endif  // OPD_COMMON_THREAD_POOL_H_
