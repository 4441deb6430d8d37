#ifndef TWRS_EXEC_EXECUTOR_H_
#define TWRS_EXEC_EXECUTOR_H_

#include <memory>

#include "exec/thread_pool.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace twrs {

/// Configuration of an Executor.
struct ExecutorOptions {
  /// Worker threads of the pool; 0 = hardware concurrency (at least 2).
  size_t capacity = 0;
};

/// A lazily-created ThreadPool. One Executor is the process-wide instance
/// reached through Shared(): concurrent sorts borrow its workers instead of
/// each spawning a pool per Sort call, so a server running many queries
/// keeps a bounded thread count no matter how many sorts are in flight.
/// Nested waits are safe on a crowded shared pool because TaskHandle::Wait
/// is work-helping (see thread_pool.h).
///
/// The pool is created on the first pool() call and lives as long as the
/// Executor; its size is fixed at that point.
class Executor {
 public:
  explicit Executor(ExecutorOptions options = ExecutorOptions());
  ~Executor() = default;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The pool, created on first call with capacity() workers.
  ThreadPool* pool() TWRS_EXCLUDES(mu_);

  /// The resolved pool size (options.capacity, or the hardware concurrency
  /// when that is 0).
  size_t capacity() const TWRS_EXCLUDES(mu_);

  /// Reconfigures the capacity. Succeeds only while the pool has not been
  /// created yet; returns false (changing nothing) afterwards, since a
  /// running pool cannot be resized.
  bool SetCapacity(size_t capacity) TWRS_EXCLUDES(mu_);

  /// Load gauge: tasks submitted but not yet finished. Approximate (see
  /// ThreadPool::inflight_tasks); the admission and planning layers use it
  /// to avoid oversubscribing the executor, not for exact accounting.
  size_t inflight_tasks() const TWRS_EXCLUDES(mu_);

  /// The process-wide shared executor. Never destroyed (leaked-singleton
  /// idiom, as Env::Default), so the borrowed pool outlives every sort.
  static Executor& Shared();

  /// Configures Shared()'s capacity; forwards to SetCapacity, so it only
  /// succeeds before the shared executor starts its pool.
  static bool ConfigureShared(size_t capacity);

 private:
  mutable Mutex mu_;
  ExecutorOptions options_ TWRS_GUARDED_BY(mu_);
  std::unique_ptr<ThreadPool> pool_ TWRS_GUARDED_BY(mu_);
};

}  // namespace twrs

#endif  // TWRS_EXEC_EXECUTOR_H_
