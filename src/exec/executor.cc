#include "exec/executor.h"

#include <algorithm>
#include <thread>

namespace twrs {

namespace {

size_t ResolvedCapacity(const ExecutorOptions& options) {
  if (options.capacity > 0) return options.capacity;
  return std::max<size_t>(2, std::thread::hardware_concurrency());
}

}  // namespace

Executor::Executor(ExecutorOptions options) : options_(options) {}

ThreadPool* Executor::pool() {
  MutexLock lock(&mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(ResolvedCapacity(options_));
  }
  return pool_.get();
}

size_t Executor::capacity() const {
  MutexLock lock(&mu_);
  return ResolvedCapacity(options_);
}

bool Executor::SetCapacity(size_t capacity) {
  MutexLock lock(&mu_);
  if (pool_ != nullptr) return false;
  options_.capacity = capacity;
  return true;
}

size_t Executor::inflight_tasks() const {
  MutexLock lock(&mu_);
  return pool_ == nullptr ? 0 : pool_->inflight_tasks();
}

Executor& Executor::Shared() {
  // Never destroyed: the borrowed pool must outlive any static-destruction
  // order, and exiting with parked workers is harmless (Env::Default idiom).
  static Executor* const kShared = new Executor();
  return *kShared;
}

bool Executor::ConfigureShared(size_t capacity) {
  return Shared().SetCapacity(capacity);
}

}  // namespace twrs
