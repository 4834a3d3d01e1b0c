// EpochMemo: a value is served while its version matches and recomputed
// when it moves on, keys are independent, capacity clears the memo, and
// concurrent callers of one cold (key, version) share a single computation.

#include "util/epoch_memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sofya {
namespace {

TEST(EpochMemoTest, SameVersionHitsWithoutComputing) {
  EpochMemo<std::string, int> memo(8);
  int calls = 0;
  auto compute = [&] { return ++calls * 10; };
  EXPECT_EQ(memo.GetOrCompute("a", 1, compute), 10);
  EXPECT_EQ(memo.GetOrCompute("a", 1, compute), 10);
  EXPECT_EQ(memo.GetOrCompute("a", 1, compute), 10);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(memo.computes(), 1u);
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(EpochMemoTest, NewVersionRecomputes) {
  EpochMemo<std::string, int> memo(8);
  int calls = 0;
  auto compute = [&] { return ++calls; };
  EXPECT_EQ(memo.GetOrCompute("a", 1, compute), 1);
  EXPECT_EQ(memo.GetOrCompute("a", 2, compute), 2);
  EXPECT_EQ(memo.GetOrCompute("a", 2, compute), 2);
  // One entry per key: going back to an old version recomputes too.
  EXPECT_EQ(memo.GetOrCompute("a", 1, compute), 3);
  EXPECT_EQ(memo.computes(), 3u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_FALSE(memo.Peek("a", 2).has_value());
}

TEST(EpochMemoTest, KeysAreIndependent) {
  EpochMemo<std::string, std::string> memo(8);
  memo.GetOrCompute("a", 1, [] { return std::string("a1"); });
  memo.GetOrCompute("b", 1, [] { return std::string("b1"); });
  // Moving b to version 2 leaves a's entry valid.
  EXPECT_EQ(memo.GetOrCompute("b", 2, [] { return std::string("b2"); }),
            "b2");
  EXPECT_EQ(memo.GetOrCompute("a", 1, [] { return std::string("x"); }), "a1");
  EXPECT_EQ(memo.computes(), 3u);
  EXPECT_EQ(memo.hits(), 1u);
}

TEST(EpochMemoTest, ReachingCapacityClearsTheMemo) {
  EpochMemo<int, int> memo(3);
  for (int k = 0; k < 3; ++k) memo.GetOrCompute(k, 1, [k] { return k; });
  // A stale version of a present key replaces its entry in place.
  memo.GetOrCompute(0, 2, [] { return 0; });
  for (int k = 1; k < 3; ++k) EXPECT_EQ(memo.Peek(k, 1), k);
  EXPECT_EQ(memo.Peek(0, 2), 0);
  // A fourth key finds the memo full and starts it over.
  memo.GetOrCompute(3, 1, [] { return 3; });
  EXPECT_EQ(memo.Peek(3, 1), 3);
  for (int k = 1; k < 3; ++k) EXPECT_FALSE(memo.Peek(k, 1).has_value());
  EXPECT_FALSE(memo.Peek(0, 2).has_value());
  const uint64_t computes = memo.computes();
  EXPECT_EQ(memo.GetOrCompute(1, 1, [] { return 1; }), 1);
  EXPECT_EQ(memo.computes(), computes + 1);
}

TEST(EpochMemoTest, PeekNeitherComputesNorCounts) {
  EpochMemo<int, int> memo(4);
  EXPECT_FALSE(memo.Peek(7, 1).has_value());
  memo.GetOrCompute(7, 1, [] { return 70; });
  EXPECT_EQ(memo.Peek(7, 1), 70);
  EXPECT_FALSE(memo.Peek(7, 2).has_value());
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.computes(), 1u);
  memo.Clear();
  EXPECT_FALSE(memo.Peek(7, 1).has_value());
}

TEST(EpochMemoTest, ConcurrentCallersOfOneColdKeyComputeOnce) {
  constexpr int kThreads = 8;
  EpochMemo<int, int> memo(4);
  std::atomic<int> arrived{0};
  std::atomic<int> calls{0};
  std::vector<std::thread> threads;
  std::vector<int> results(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      results[t] = memo.GetOrCompute(42, 5, [&] {
        calls.fetch_add(1);
        // Hold the computation until every caller has arrived, and a little
        // longer, so the others find it in flight and wait for it.
        while (arrived.load() < kThreads) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 4242;
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(calls.load(), 1);
  for (int r : results) EXPECT_EQ(r, 4242);
  EXPECT_EQ(memo.computes(), 1u);
  EXPECT_EQ(memo.hits() + memo.computes(), static_cast<uint64_t>(kThreads));
}

TEST(EpochMemoTest, OtherKeysDoNotWaitForAComputation) {
  EpochMemo<int, int> memo(4);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto slow = std::async(std::launch::async, [&] {
    return memo.GetOrCompute(1, 1, [&] {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
      return 1;
    });
  });
  while (!started.load()) std::this_thread::yield();
  // Key 1 is still being computed; key 2 is answered regardless.
  EXPECT_EQ(memo.GetOrCompute(2, 1, [] { return 2; }), 2);
  release.store(true);
  EXPECT_EQ(slow.get(), 1);
}

TEST(EpochMemoTest, ThrowingComputeMemoizesNothing) {
  EpochMemo<int, int> memo(4);
  EXPECT_THROW(memo.GetOrCompute(1, 1,
                                 []() -> int {
                                   throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  EXPECT_FALSE(memo.Peek(1, 1).has_value());
  // The failed computation left no in-flight marker to wait on.
  EXPECT_EQ(memo.GetOrCompute(1, 1, [] { return 9; }), 9);
  EXPECT_EQ(memo.computes(), 2u);
}

}  // namespace
}  // namespace sofya
