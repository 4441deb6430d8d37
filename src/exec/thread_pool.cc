#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

namespace twrs {

void TaskHandle::RunIfUnclaimed(const std::shared_ptr<State>& state) {
  std::function<Status()> fn;
  {
    MutexLock lock(&state->mu);
    if (state->phase != State::kQueued) return;
    state->phase = State::kRunning;
    fn = std::move(state->fn);
    state->fn = nullptr;
  }
  Status result = fn();
  // The gauge must drop before kDone is visible: a waiter observing
  // completion may destroy the pool that owns the gauge, and this thread
  // may be a work-helping outsider the pool's destructor does not join.
  if (state->inflight_gauge != nullptr) {
    state->inflight_gauge->fetch_sub(1, std::memory_order_relaxed);
    state->inflight_gauge = nullptr;
  }
  {
    MutexLock lock(&state->mu);
    state->result = std::move(result);
    state->phase = State::kDone;
  }
  state->cv.NotifyAll();
}

Status TaskHandle::Wait() {
  if (state_ == nullptr) return Status::OK();
  RunIfUnclaimed(state_);
  MutexLock lock(&state_->mu);
  while (state_->phase != State::kDone) state_->cv.Wait(state_->mu);
  return state_->result;
}

bool TaskHandle::done() const {
  if (state_ == nullptr) return true;
  MutexLock lock(&state_->mu);
  return state_->phase == State::kDone;
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

TaskHandle ThreadPool::Submit(std::function<Status()> fn) {
  auto state = std::make_shared<TaskHandle::State>();
  {
    // Not yet shared with any other thread, but `fn` is guarded state and
    // the uncontended lock keeps the initialization analyzable.
    MutexLock lock(&state->mu);
    state->fn = std::move(fn);
  }
  state->inflight_gauge = &inflight_;
  inflight_.fetch_add(1, std::memory_order_relaxed);
  bool queued = false;
  {
    MutexLock lock(&mu_);
    if (!stopping_) {
      queue_.push_back(state);
      queued = true;
    }
  }
  if (queued) {
    cv_.NotifyOne();
  } else {
    // A pool that is shutting down no longer accepts queue entries; run the
    // task on the caller so the handle still completes.
    TaskHandle::RunIfUnclaimed(state);
  }
  return TaskHandle(state);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<TaskHandle::State> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    TaskHandle::RunIfUnclaimed(task);
  }
}

Status RunAll(ThreadPool* pool, size_t n, size_t caller_tasks,
              const std::function<Status(size_t)>& task) {
  if (pool == nullptr) caller_tasks = n;
  std::vector<TaskHandle> handles;
  handles.reserve(n - std::min(n, caller_tasks));
  for (size_t i = caller_tasks; i < n; ++i) {
    handles.push_back(pool->Submit([&task, i] { return task(i); }));
  }
  Status first_error;
  for (size_t i = 0; i < std::min(n, caller_tasks) && first_error.ok(); ++i) {
    first_error = task(i);
  }
  for (TaskHandle& handle : handles) {
    Status s = handle.Wait();
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  return first_error;
}

}  // namespace twrs
