#include "service/memory_governor.h"

#include <algorithm>

#include "obs/latency_histogram.h"
#include "util/stopwatch.h"

namespace twrs {

void MemoryLease::Release() {
  if (governor_ != nullptr) {
    governor_->Release(records_);
    governor_ = nullptr;
    records_ = 0;
  }
}

void MemoryLease::Downsize(size_t records) {
  if (governor_ == nullptr || records >= records_) return;
  governor_->ReleaseDownsized(records_ - records);
  records_ = records;
}

MemoryGovernor::MemoryGovernor(MemoryGovernorOptions options)
    : options_(options) {
  // A zero-capacity governor could never grant anything and every Reserve
  // would block forever; clamp to the smallest useful budget instead.
  options_.capacity_records = std::max<size_t>(1, options_.capacity_records);
}

size_t MemoryGovernor::FloorFor(size_t nominal) const {
  size_t floor = std::min(options_.min_lease_records, nominal);
  floor = std::min(floor, options_.capacity_records);
  return std::max<size_t>(1, floor);
}

Status MemoryGovernor::Reserve(size_t nominal_records, MemoryLease* lease,
                               const CancelToken* cancel) {
  if (nominal_records == 0) {
    return Status::InvalidArgument("memory lease ask must be positive");
  }
  const size_t ask = std::min(nominal_records, options_.capacity_records);
  const size_t floor = FloorFor(ask);

  Stopwatch wait_watch;
  MutexLock lock(&mu_);
  const uint64_t ticket = next_ticket_++;
  waiters_.push_back(ticket);
  while (!IsCancelled(cancel) &&
         !(waiters_.front() == ticket &&
           options_.capacity_records - reserved_ >= floor)) {
    cv_.Wait(mu_);
  }
  if (IsCancelled(cancel)) {
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), ticket));
    // A cancelled front ticket may have been the only thing gating the
    // next waiter.
    cv_.NotifyAll();
    return Status::Cancelled("memory reservation cancelled");
  }
  waiters_.pop_front();
  const size_t free = options_.capacity_records - reserved_;
  const size_t granted = std::min(ask, free);
  reserved_ += granted;
  ++total_leases_;
  if (granted < nominal_records) ++shrunk_leases_;
  *lease = MemoryLease(this, granted);
  // Whatever budget remains may satisfy the next ticket's floor.
  cv_.NotifyAll();
  if (reserve_histogram_ != nullptr) {
    reserve_histogram_->RecordSeconds(wait_watch.ElapsedSeconds());
  }
  return Status::OK();
}

void MemoryGovernor::WakeWaiters() {
  MutexLock lock(&mu_);
  cv_.NotifyAll();
}

void MemoryGovernor::Release(size_t records) {
  MutexLock lock(&mu_);
  reserved_ -= std::min(records, reserved_);
  cv_.NotifyAll();
}

void MemoryGovernor::ReleaseDownsized(size_t records) {
  MutexLock lock(&mu_);
  reserved_ -= std::min(records, reserved_);
  ++downsized_leases_;
  cv_.NotifyAll();
}

MemoryGovernorStats MemoryGovernor::Stats() const {
  MutexLock lock(&mu_);
  MemoryGovernorStats stats;
  stats.capacity_records = options_.capacity_records;
  stats.reserved_records = reserved_;
  stats.waiting = waiters_.size();
  stats.total_leases = total_leases_;
  stats.shrunk_leases = shrunk_leases_;
  stats.downsized_leases = downsized_leases_;
  return stats;
}

}  // namespace twrs
