#ifndef TWRS_EXEC_THREAD_POOL_H_
#define TWRS_EXEC_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace twrs {

class ThreadPool;

/// Future-style handle to a task submitted to a ThreadPool. Wait() is
/// work-helping: if the task is still queued and no worker has claimed it,
/// the waiting thread runs it inline. This makes nested waits safe — a task
/// running on the pool may submit sub-tasks and wait on them without risking
/// deadlock when every worker is busy.
class TaskHandle {
 public:
  TaskHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the task has run (possibly running it on this thread) and
  /// returns its Status. Waiting on an invalid handle returns OK. Idempotent.
  Status Wait();

  /// True once the task has finished (non-blocking probe).
  bool done() const;

 private:
  friend class ThreadPool;

  struct State {
    Mutex mu;
    CondVar cv;
    enum Phase { kQueued, kRunning, kDone } phase TWRS_GUARDED_BY(mu) = kQueued;
    std::function<Status()> fn TWRS_GUARDED_BY(mu);
    Status result TWRS_GUARDED_BY(mu);

    /// Pool-load gauge this task decrements when it finishes (set by
    /// Submit). Decremented strictly before kDone is published: once a
    /// waiter can observe completion it may destroy the pool, and the
    /// runner may be a work-helping outsider the destructor never joins.
    /// Not guarded by `mu`: written once before the handle is shared, then
    /// owned by the single thread that wins the kQueued→kRunning claim.
    std::atomic<uint64_t>* inflight_gauge = nullptr;
  };

  explicit TaskHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  /// Runs `state`'s function if nobody claimed it yet (worker and helper
  /// entry point).
  static void RunIfUnclaimed(const std::shared_ptr<State>& state);

  std::shared_ptr<State> state_;
};

/// Fixed-size pool of worker threads executing Status-returning tasks in
/// submission order. The destructor completes every submitted task before returning, so a pool
/// can be stack-allocated around a batch of work.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue, waits for running tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a waitable handle to its completion.
  TaskHandle Submit(std::function<Status()> fn) TWRS_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

  /// Load gauge: tasks submitted but not yet finished (queued + running,
  /// including tasks a helper thread runs inline). Approximate by nature —
  /// the value can change before the caller acts on it — which is all a
  /// scheduler needs for admission and planning decisions.
  size_t inflight_tasks() const {
    return static_cast<size_t>(inflight_.load(std::memory_order_relaxed));
  }

 private:
  void WorkerLoop() TWRS_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<TaskHandle::State>> queue_ TWRS_GUARDED_BY(mu_);
  bool stopping_ TWRS_GUARDED_BY(mu_) = false;
  /// Written only by the constructor, joined only by the destructor; never
  /// touched concurrently, so unguarded.
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> inflight_{0};
};

}  // namespace twrs

#endif  // TWRS_EXEC_THREAD_POOL_H_
