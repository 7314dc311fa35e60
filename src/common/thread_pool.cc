#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

namespace opd {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

bool ThreadPool::TryRunOne() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int ThreadPool::DefaultThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool CountdownLatch::CountDown(size_t n) {
  // Everything happens under the mutex, and notify_all fires while it is
  // still held: by the time a waiter can re-acquire the lock, observe zero,
  // and return (possibly destroying this latch), this call no longer
  // touches any member.
  std::lock_guard<std::mutex> lock(mu_);
  if (remaining_ == 0) return false;  // already signaled: true exactly once
  remaining_ = remaining_ > n ? remaining_ - n : 0;
  if (remaining_ > 0) return false;
  cv_.notify_all();
  return true;
}

bool CountdownLatch::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remaining_ == 0;
}

void CountdownLatch::Wait(ThreadPool* pool) {
  for (;;) {
    if (Done()) return;
    if (pool != nullptr && pool->TryRunOne()) continue;
    // Nothing runnable right now: sleep briefly. The timeout covers tasks
    // enqueued after the empty-queue check (notify_one may wake a worker,
    // not us); CountDown's notify_all ends the wait promptly at zero.
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::milliseconds(1),
                     [this] { return remaining_ == 0; })) {
      return;
    }
  }
}

namespace {

// Runs one index, converting any escaped exception into a Status.
Status RunGuarded(const std::function<Status(size_t)>& fn, size_t i) {
  try {
    return fn(i);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw a non-std exception");
  }
}

}  // namespace

Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn,
                   double* max_task_seconds) {
  if (max_task_seconds != nullptr) *max_task_seconds = 0;
  const bool serial = pool == nullptr || pool->num_threads() <= 1 || n <= 1;

  // Failures are rare: statuses start OK and an index writes its slot only
  // on error, so the wave's common case never dirties this shared array
  // (the per-index stores were a false-sharing hotspot at 8 threads).
  std::vector<Status> statuses(n, Status::OK());

  if (serial) {
    double max_s = 0;
    for (size_t i = 0; i < n; ++i) {
      const auto start = std::chrono::steady_clock::now();
      Status st = RunGuarded(fn, i);
      if (!st.ok()) statuses[i] = std::move(st);
      max_s = std::max(
          max_s, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    }
    if (max_task_seconds != nullptr) *max_task_seconds = max_s;
  } else {
    // Dispatch at most one drain task per worker instead of one pool task
    // per index: drains pull indices from a shared counter, and the calling
    // thread drains too, so small waves never pay a context switch to make
    // progress. Which thread runs an index is immaterial — each index
    // writes only its own slots.
    //
    // The drain counter and each drain's straggler time live on their own
    // cache lines: every index claim is an RMW on `next`, and sharing its
    // line with other hot data made the claim loop itself the bottleneck.
    struct alignas(64) PaddedCounter {
      std::atomic<size_t> v{0};
    };
    struct alignas(64) PaddedMax {
      double v = 0;
    };
    // More concurrent drains than physical cores only adds context
    // switches, so cap by hardware concurrency regardless of pool size.
    const size_t cores =
        static_cast<size_t>(ThreadPool::DefaultThreads(0));
    const size_t helpers =
        std::min({n, static_cast<size_t>(pool->num_threads()), cores}) - 1;
    PaddedCounter next;
    std::vector<PaddedMax> drain_max(helpers + 1);
    auto drain = [&](size_t w) {
      double local_max = 0;  // aggregated locally, published once per drain
      for (size_t i;
           (i = next.v.fetch_add(1, std::memory_order_relaxed)) < n;) {
        const auto start = std::chrono::steady_clock::now();
        Status st = RunGuarded(fn, i);
        if (!st.ok()) statuses[i] = std::move(st);
        local_max = std::max(
            local_max, std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
      }
      drain_max[w].v = local_max;
    };
    // The wait must help, not block: when the caller is itself a pool
    // worker (cross-job DAG scheduling runs whole jobs as pool tasks), a
    // blocking wait with every worker inside a ParallelFor would
    // leave the queued drains with no thread to run them.
    CountdownLatch drains_done(helpers);
    for (size_t w = 0; w < helpers; ++w) {
      pool->Submit([&drain, &drains_done, w] {
        drain(w);
        drains_done.CountDown();
      });
    }
    drain(helpers);  // the calling thread participates
    drains_done.Wait(pool);
    if (max_task_seconds != nullptr) {
      for (const PaddedMax& m : drain_max) {
        *max_task_seconds = std::max(*max_task_seconds, m.v);
      }
    }
  }

  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace opd
