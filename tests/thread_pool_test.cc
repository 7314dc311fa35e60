// Unit tests for the common ThreadPool and its ParallelFor helper: task
// completion, serial-path ordering, and exception/Status propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace opd {
namespace {

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  ThreadPool pool_neg(-3);
  EXPECT_GE(pool_neg.num_threads(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsResolvesAuto) {
  EXPECT_GE(ThreadPool::DefaultThreads(0), 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(5), 5);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  CountdownLatch all(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count, &all] {
      ++count;
      all.CountDown();
    });
  }
  all.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // join on destruction after the queue drains
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, TryRunOneReturnsFalseOnEmptyQueue) {
  ThreadPool pool(1);
  // Park the single worker so it cannot steal the queued task below. The
  // gate guarantees the *worker* owns the parked task (otherwise this
  // thread's TryRunOne below could pop it and spin on its own flag).
  std::atomic<bool> release{false};
  CountdownLatch parked_gate(1);
  CountdownLatch unparked(1);
  pool.Submit([&release, &parked_gate, &unparked] {
    parked_gate.CountDown();
    while (!release.load()) std::this_thread::yield();
    unparked.CountDown();
  });
  parked_gate.Wait();

  EXPECT_FALSE(pool.TryRunOne());  // nothing queued yet

  std::atomic<int> ran{0};
  pool.Submit([&ran] { ++ran; });
  EXPECT_TRUE(pool.TryRunOne());  // runs the queued task on this thread
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(pool.TryRunOne());  // queue drained

  release.store(true);
  unparked.Wait();
}

TEST(CountdownLatchTest, CountDownReturnsTrueExactlyOnce) {
  CountdownLatch latch(3);
  EXPECT_FALSE(latch.Done());
  EXPECT_FALSE(latch.CountDown());
  EXPECT_FALSE(latch.CountDown());
  EXPECT_TRUE(latch.CountDown());  // the call that reaches zero
  EXPECT_TRUE(latch.Done());
  EXPECT_FALSE(latch.CountDown());  // already zero: clamped, not true again
}

TEST(CountdownLatchTest, CountDownByNClampsAtZero) {
  CountdownLatch latch(5);
  EXPECT_FALSE(latch.CountDown(2));
  EXPECT_TRUE(latch.CountDown(10));  // overshoot clamps and signals once
  EXPECT_TRUE(latch.Done());
}

TEST(CountdownLatchTest, ZeroCountStartsDone) {
  CountdownLatch latch(0);
  EXPECT_TRUE(latch.Done());
  latch.Wait();  // must not block
}

TEST(CountdownLatchTest, WaitBlocksUntilCountReachesZero) {
  ThreadPool pool(4);
  CountdownLatch latch(8);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&latch, &done] {
      ++done;
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(done.load(), 8);  // every CountDown happened-before Wait returned
}

TEST(CountdownLatchTest, WaitWithPoolHelpsDrainQueuedTasks) {
  // One worker, parked: the only way the latch tasks can run is if Wait()
  // itself drains them via TryRunOne. A sleeping Wait would deadlock here
  // (enforced by the 60s test timeout rather than a flaky sleep).
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  CountdownLatch parked_gate(1);
  pool.Submit([&release, &parked_gate] {
    parked_gate.CountDown();
    while (!release.load()) std::this_thread::yield();
  });
  parked_gate.Wait();  // worker is now parked

  CountdownLatch latch(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&latch, &ran] {
      ++ran;
      latch.CountDown();
    });
  }
  latch.Wait(&pool);  // must help: the worker cannot
  EXPECT_EQ(ran.load(), 4);
  release.store(true);
}

TEST(CountdownLatchTest, TasksSubmittingTasksResolveViaHelpingWait) {
  // Pipelined handoff shape: producers submit consumers mid-flight. The
  // waiter counts both generations and helps drain, so even a 1-thread pool
  // cannot deadlock.
  ThreadPool pool(1);
  constexpr int kProducers = 3;
  CountdownLatch all(kProducers * 2);  // producers + spawned consumers
  std::atomic<int> consumed{0};
  for (int p = 0; p < kProducers; ++p) {
    pool.Submit([&pool, &all, &consumed] {
      pool.Submit([&all, &consumed] {
        ++consumed;
        all.CountDown();
      });
      all.CountDown();
    });
  }
  all.Wait(&pool);
  EXPECT_EQ(consumed.load(), kProducers);
}

TEST(ParallelForTest, SerialPathRunsIndicesInOrder) {
  // Null pool => inline execution on the calling thread, in index order.
  std::vector<size_t> order;
  Status st = ParallelFor(nullptr, 10, [&order](size_t i) {
    order.push_back(i);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  std::vector<size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ParallelForTest, ParallelRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  Status st = ParallelFor(&pool, hits.size(), [&hits](size_t i) {
    ++hits[i];
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ReturnsLowestIndexFailureDeterministically) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    Status st = ParallelFor(&pool, 16, [](size_t i) {
      if (i % 2 == 1) {
        return Status::InvalidArgument("bad index " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    // Index 1 is the lowest failure regardless of completion order.
    EXPECT_EQ(st.message(), "bad index 1");
  }
}

TEST(ParallelForTest, ConvertsThrownExceptionToInternalStatus) {
  ThreadPool pool(2);
  Status st = ParallelFor(&pool, 8, [](size_t i) -> Status {
    if (i == 3) throw std::runtime_error("kaboom");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("kaboom"), std::string::npos);
}

TEST(ParallelForTest, AllIndicesRunEvenWhenOneFails) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  Status st = ParallelFor(&pool, 32, [&count](size_t i) -> Status {
    ++count;
    return i == 0 ? Status::Internal("first fails") : Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(count.load(), 32);  // failure does not cancel later tasks
}

TEST(ParallelForTest, ReportsMaxTaskSeconds) {
  ThreadPool pool(2);
  double max_task_s = -1;
  Status st = ParallelFor(
      &pool, 4, [](size_t) { return Status::OK(); }, &max_task_s);
  ASSERT_TRUE(st.ok());
  EXPECT_GE(max_task_s, 0.0);
}

}  // namespace
}  // namespace opd
