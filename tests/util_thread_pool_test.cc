// ThreadPool: every submitted task runs, results and exceptions come back
// through the futures, and destruction drains the queue before joining.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sofya {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([i, &order] { order.push_back(i); }));
  }
  for (auto& future : futures) future.get();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto bad = pool.Submit(
      []() -> int { throw std::runtime_error("task exploded"); });
  auto good = pool.Submit([] { return 42; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // A throwing task must not take its worker down with it.
  EXPECT_EQ(good.get(), 42);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1);
      });
    }
    // Futures dropped on purpose: the destructor alone must guarantee
    // completion of everything already queued.
  }
  EXPECT_EQ(completed.load(), 50);
}

TEST(ThreadPoolTest, PostedContinuationChainsComplete) {
  // The phase scheduler's shape: tasks post follow-up tasks from inside
  // workers (they land on the posting worker's own deque) and nothing ever
  // blocks on a future. Every link of every chain must run.
  std::atomic<int> completed{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  int chains_done = 0;
  constexpr int kChains = 16;
  constexpr int kLinks = 10;

  // `link` is declared BEFORE the pool so workers can never outlive it
  // (destruction runs in reverse order: pool joins first).
  std::function<void(int)> link;
  {
    ThreadPool pool(4);
    link = [&](int remaining) {
      completed.fetch_add(1);
      if (remaining > 1) {
        pool.Post([&, remaining] { link(remaining - 1); });
        return;
      }
      {
        std::lock_guard<std::mutex> lock(done_mu);
        ++chains_done;
      }
      done_cv.notify_one();
    };
    for (int c = 0; c < kChains; ++c) {
      pool.Post([&] { link(kLinks); });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return chains_done == kChains; });
  }
  EXPECT_EQ(completed.load(), kChains * kLinks);
}

TEST(ThreadPoolTest, IdleWorkersStealQueuedSubtasks) {
  // One worker fans out slow subtasks from inside a task; with stealing,
  // they overlap across workers instead of serializing behind the poster.
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> done{0};
  auto slow_subtask = [&] {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    in_flight.fetch_sub(1);
    done.fetch_add(1);
  };
  pool.Submit([&] {
        // All 8 subtasks land on THIS worker's deque; the other 3 workers
        // have nothing else to do and must steal.
        for (int i = 0; i < 8; ++i) pool.Post(slow_subtask);
      })
      .get();
  while (done.load() < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(max_in_flight.load(), 2);
}

TEST(ThreadPoolTest, ParallelTasksActuallyOverlap) {
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.Submit([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      in_flight.fetch_sub(1);
    }));
  }
  for (auto& future : futures) future.get();
  // With 4 workers and 20ms tasks, at least two must have overlapped (even
  // on a single hardware core the sleeps interleave).
  EXPECT_GE(max_in_flight.load(), 2);
}

}  // namespace
}  // namespace sofya
