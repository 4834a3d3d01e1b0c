// ThreadPool: a fixed-size worker pool with per-worker steal deques.
//
// Two submission paths:
//
//   * Submit(fn)  — future-returning, exceptions propagate through the
//                   future. The external entry point.
//   * Post(fn)    — fire-and-forget continuation, the phase-decomposed
//                   alignment scheduler's entry point. A Post from inside a
//                   worker lands on that worker's OWN deque (LIFO hot end),
//                   so a relation's next phase tends to stay cache-warm on
//                   the worker that finished the previous one.
//
// Scheduling is work-stealing over lock-based deques (the chase-lev
// structure without the lock-free arithmetic — SOFYA's tasks are endpoint
// query pipelines, microseconds to seconds each, so a per-deque mutex is
// nowhere near contention): a worker pops its own deque from the back
// (LIFO, locality), takes external work from a shared injection queue, and
// otherwise steals from a sibling's front (FIFO — the oldest task is the
// most likely to be a big untouched chain head). Stealing is what keeps the
// pool busy when one giant relation fans out far more subtasks than its
// siblings: idle workers drain the hot worker's deque instead of idling
// behind a fixed per-relation assignment.
//
// Destruction drains every queued task before joining, so no submitted task
// is ever silently dropped.

#ifndef SOFYA_UTIL_THREAD_POOL_H_
#define SOFYA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sofya {

/// Fixed-N work-stealing pool; see file comment.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    deques_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      deques_.push_back(std::make_unique<WorkerDeque>());
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  /// Drains every queued task, then joins the workers. Tasks submitted
  /// before destruction always run.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. The future also
  /// carries any exception `fn` throws. Must not be called during/after
  /// destruction.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    // packaged_task is move-only and std::function requires copyable
    // callables; the shared_ptr wrapper is the standard bridge.
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    Post([task] { (*task)(); });
    return future;
  }

  /// Fire-and-forget enqueue. From a worker thread of THIS pool the task
  /// goes to that worker's own deque (hot end); from outside it goes to the
  /// shared injection queue. The caller owns failure handling — an
  /// exception escaping a posted task terminates (post Status-returning
  /// work only).
  void Post(std::function<void()> fn) {
    const Worker current = current_worker_;
    if (current.pool == this) {
      WorkerDeque& mine = *deques_[current.index];
      std::lock_guard<std::mutex> lock(mine.mu);
      mine.tasks.push_back(std::move(fn));
    } else {
      std::lock_guard<std::mutex> lock(injection_mu_);
      injection_.push_back(std::move(fn));
    }
    {
      // Bump the queue version under the idle lock so a worker between a
      // failed scan and its wait observes either the new version or the
      // notification — never neither (no lost wakeups).
      std::lock_guard<std::mutex> lock(idle_mu_);
      ++version_;
    }
    wake_.notify_one();
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  struct WorkerDeque {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;  // Guarded by mu.
  };

  /// Which pool/worker the current thread belongs to (Post routing).
  struct Worker {
    ThreadPool* pool = nullptr;
    size_t index = 0;
  };
  static thread_local Worker current_worker_;

  bool TryPopOwn(size_t i, std::function<void()>* task) {
    WorkerDeque& mine = *deques_[i];
    std::lock_guard<std::mutex> lock(mine.mu);
    if (mine.tasks.empty()) return false;
    *task = std::move(mine.tasks.back());  // LIFO: newest, cache-warm.
    mine.tasks.pop_back();
    return true;
  }

  bool TryPopInjection(std::function<void()>* task) {
    std::lock_guard<std::mutex> lock(injection_mu_);
    if (injection_.empty()) return false;
    *task = std::move(injection_.front());  // FIFO: submission order.
    injection_.pop_front();
    return true;
  }

  bool TrySteal(size_t thief, std::function<void()>* task) {
    for (size_t k = 1; k < deques_.size(); ++k) {
      WorkerDeque& victim = *deques_[(thief + k) % deques_.size()];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (victim.tasks.empty()) continue;
      *task = std::move(victim.tasks.front());  // FIFO: oldest chain head.
      victim.tasks.pop_front();
      return true;
    }
    return false;
  }

  void WorkerLoop(size_t i) {
    current_worker_ = Worker{this, i};
    for (;;) {
      uint64_t seen;
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        seen = version_;
      }
      std::function<void()> task;
      if (TryPopOwn(i, &task) || TryPopInjection(&task) ||
          TrySteal(i, &task)) {
        task();  // Submit() wraps in packaged_task (captures exceptions).
        continue;
      }
      // The scan came up empty against version `seen`. Sleep only if
      // nothing was posted since; otherwise rescan. A worker that exits
      // here saw every queue empty — a task posted by a still-running
      // sibling bumps the version and is drained by that sibling, so no
      // accepted task is dropped.
      std::unique_lock<std::mutex> lock(idle_mu_);
      wake_.wait(lock,
                 [&] { return stopping_ || version_ != seen; });
      if (version_ != seen) continue;
      if (stopping_) return;
    }
  }

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> workers_;

  std::mutex injection_mu_;
  std::deque<std::function<void()>> injection_;  // Guarded by injection_mu_.

  std::mutex idle_mu_;
  std::condition_variable wake_;
  uint64_t version_ = 0;   // Bumped on every Post. Guarded by idle_mu_.
  bool stopping_ = false;  // Guarded by idle_mu_.
};

inline thread_local ThreadPool::Worker ThreadPool::current_worker_;

}  // namespace sofya

#endif  // SOFYA_UTIL_THREAD_POOL_H_
