#ifndef TWRS_SERVICE_MEMORY_GOVERNOR_H_
#define TWRS_SERVICE_MEMORY_GOVERNOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "util/cancel.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace twrs {

class LatencyHistogram;
class MemoryGovernor;

/// RAII lease over part of a MemoryGovernor's record budget. Move-only;
/// the records return to the governor on Release() or destruction. A
/// default-constructed lease is empty and releases nothing.
class MemoryLease {
 public:
  MemoryLease() = default;
  ~MemoryLease() { Release(); }

  MemoryLease(MemoryLease&& other) noexcept { *this = std::move(other); }
  MemoryLease& operator=(MemoryLease&& other) noexcept {
    if (this != &other) {
      Release();
      governor_ = other.governor_;
      records_ = other.records_;
      other.governor_ = nullptr;
      other.records_ = 0;
    }
    return *this;
  }

  MemoryLease(const MemoryLease&) = delete;
  MemoryLease& operator=(const MemoryLease&) = delete;

  bool valid() const { return governor_ != nullptr; }

  /// Granted budget in records; 0 for an empty lease.
  size_t records() const { return records_; }

  /// Shrinks the lease to `records`, returning the difference to the
  /// governor immediately (waiters are woken, so a queued job can admit
  /// while this one keeps running). No-op when `records` is not smaller
  /// than the current grant. The SortService calls this when a job leaves
  /// run generation: the merge phase needs a fraction of the heap budget,
  /// and holding the rest would only park the admission queue.
  void Downsize(size_t records);

  /// Returns the records to the governor. Idempotent.
  void Release();

 private:
  friend class MemoryGovernor;
  MemoryLease(MemoryGovernor* governor, size_t records)
      : governor_(governor), records_(records) {}

  MemoryGovernor* governor_ = nullptr;
  size_t records_ = 0;
};

/// Configuration of a MemoryGovernor.
struct MemoryGovernorOptions {
  /// Total record budget shared by every concurrent sort — the
  /// process-wide equivalent of the paper's "available memory" M.
  size_t capacity_records = 4 << 20;

  /// Smallest lease ever granted. Under load a job's request shrinks down
  /// to — but never below — this floor, so admission always makes
  /// progress instead of waiting for the full nominal budget. The paper's
  /// Chapter 6 point that run generation quality degrades gracefully with
  /// memory is what makes shrinking a sound trade: a shrunk job produces
  /// more, shorter runs, not a wrong result.
  size_t min_lease_records = 1 << 12;
};

/// Aggregate state of a governor (snapshot; fields are mutually consistent
/// at the time of the call).
struct MemoryGovernorStats {
  size_t capacity_records = 0;
  size_t reserved_records = 0;
  size_t waiting = 0;          ///< callers blocked in Reserve
  uint64_t total_leases = 0;   ///< leases granted so far
  uint64_t shrunk_leases = 0;  ///< leases granted below their nominal ask
  uint64_t downsized_leases = 0;  ///< leases shrunk mid-flight via Downsize
};

/// Process-wide arbiter of the record budget shared by concurrent sorts.
///
/// Reserve(nominal) blocks until a lease of at least
/// min(nominal, min_lease_records) can be granted, then grants as much of
/// `nominal` as is currently free — a *shrunk-but-bounded* lease under
/// load instead of an unbounded wait for the full ask. Waiters are served
/// strictly FIFO: a large request parks arrivals behind it rather than
/// being starved by a stream of small ones, which (with every lease
/// eventually released) makes admission starvation-free.
///
/// Thread-safe. Leases must not outlive the governor.
class MemoryGovernor {
 public:
  explicit MemoryGovernor(MemoryGovernorOptions options);
  ~MemoryGovernor() = default;

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Blocks until a lease can be granted (FIFO order), then writes it to
  /// `*lease`. `nominal_records` asks are clamped to the capacity. When
  /// `cancel` fires while waiting (wake it via WakeWaiters), returns
  /// Cancelled without a grant. InvalidArgument on a zero ask.
  Status Reserve(size_t nominal_records, MemoryLease* lease,
                 const CancelToken* cancel = nullptr) TWRS_EXCLUDES(mu_);

  /// Wakes blocked Reserve calls so they can observe their CancelToken.
  void WakeWaiters() TWRS_EXCLUDES(mu_);

  /// Records the wall time of every Reserve call — immediate grants
  /// included, so the histogram's low percentiles show the uncontended
  /// path and the high ones the admission queue. `histogram` must outlive
  /// the governor; set before concurrent use. Null disables recording.
  void set_reserve_histogram(LatencyHistogram* histogram) {
    reserve_histogram_ = histogram;
  }

  MemoryGovernorStats Stats() const TWRS_EXCLUDES(mu_);

  const MemoryGovernorOptions& options() const { return options_; }

 private:
  friend class MemoryLease;

  /// Lease floor for an ask: never below 1, never above the ask or the
  /// capacity.
  size_t FloorFor(size_t nominal) const;

  void Release(size_t records) TWRS_EXCLUDES(mu_);

  /// Release for a mid-flight Downsize: also counts the event.
  void ReleaseDownsized(size_t records) TWRS_EXCLUDES(mu_);

  /// Immutable after the constructor's clamp; read without the lock.
  MemoryGovernorOptions options_;

  /// Written once before concurrent use, then only read.
  LatencyHistogram* reserve_histogram_ = nullptr;

  mutable Mutex mu_;
  CondVar cv_;
  size_t reserved_ TWRS_GUARDED_BY(mu_) = 0;
  /// FIFO admission queue: tickets of the callers blocked in Reserve, in
  /// arrival order. Only the front ticket may be granted.
  std::deque<uint64_t> waiters_ TWRS_GUARDED_BY(mu_);
  uint64_t next_ticket_ TWRS_GUARDED_BY(mu_) = 0;
  uint64_t total_leases_ TWRS_GUARDED_BY(mu_) = 0;
  uint64_t shrunk_leases_ TWRS_GUARDED_BY(mu_) = 0;
  uint64_t downsized_leases_ TWRS_GUARDED_BY(mu_) = 0;
};

}  // namespace twrs

#endif  // TWRS_SERVICE_MEMORY_GOVERNOR_H_
