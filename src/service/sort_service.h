#ifndef TWRS_SERVICE_SORT_SERVICE_H_
#define TWRS_SERVICE_SORT_SERVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>

#include "io/env.h"
#include "merge/external_sorter.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "service/memory_governor.h"
#include "service/parallel_planner.h"
#include "util/cancel.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace twrs {

class Executor;
class SortService;

/// SortJobSpec::run_generation_threads value asking the service to pick
/// the count adaptively (PlanParallelism over input size, lease and
/// executor load).
inline constexpr size_t kAutoRunGenerationThreads = 0;

/// One sort job: a record file sorted into an output file under the
/// service's memory governance.
struct SortJobSpec {
  std::string input_path;
  std::string output_path;

  /// Per-job sort configuration. `memory_records` is the job's *nominal*
  /// memory ask — the MemoryGovernor may grant less under load. The
  /// `cancel` field is ignored: cancellation goes through JobHandle, which
  /// owns the job's token.
  ExternalSortOptions sort;

  /// Run generators sharing the job's lease (ParallelOptions::
  /// run_generation_threads): kAutoRunGenerationThreads = plan
  /// adaptively; 1 = serial run generation; otherwise a fixed count.
  size_t run_generation_threads = kAutoRunGenerationThreads;

  /// Partitions of the sort's final merge pass. 0 = let the planner pick
  /// (the free executor workers the generators leave over); 1 = serial
  /// last pass; otherwise a fixed partition count.
  size_t final_merge_threads = 0;
};

/// Lifecycle of a job: Submit enqueues it (kQueued); the scheduler admits
/// it once a memory lease is granted (kAdmitted), dispatches it onto the
/// executor (kRunning) and it terminates as exactly one of kDone, kFailed
/// or kCancelled.
enum class JobState {
  kQueued,
  kAdmitted,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

const char* JobStateName(JobState state);

/// Snapshot of one job's progress and outcome.
struct SortJobStats {
  JobState state = JobState::kQueued;
  Status status;

  size_t nominal_memory_records = 0;
  size_t granted_memory_records = 0;  ///< the lease; < nominal when shrunk
  /// Lease after the mid-flight downsize at merge begin; 0 until (and
  /// unless) the job returned part of its budget.
  size_t downsized_memory_records = 0;
  size_t planned_run_generation_threads = 0;
  size_t planned_final_merge_threads = 0;
  ParallelPlanLimit plan_limit = ParallelPlanLimit::kInputFitsInMemory;

  double queue_seconds = 0.0;  ///< submission → admission (lease granted)
  double total_seconds = 0.0;  ///< submission → terminal state

  /// Sort breakdown; valid when state == kDone.
  ExternalSortResult result;
};

namespace internal {
struct ServiceLink;
struct SortJob;
}  // namespace internal

/// Caller's reference to a submitted job. Copyable; all copies refer to
/// the same job. Wait/state/stats stay valid after the service finished
/// the job, even once the service itself is gone (every job is finalized
/// by Shutdown, so a handle never refers to a live job of a dead service).
class JobHandle {
 public:
  JobHandle() = default;
  ~JobHandle();
  JobHandle(const JobHandle&) = default;
  JobHandle& operator=(const JobHandle&) = default;
  JobHandle(JobHandle&&) noexcept = default;
  JobHandle& operator=(JobHandle&&) noexcept = default;

  bool valid() const { return job_ != nullptr; }

  /// Blocks until the job reaches a terminal state; returns its Status.
  /// OK for kDone, the failure for kFailed, Cancelled for kCancelled.
  Status Wait();

  /// Requests cooperative cancellation: a queued job is dropped at
  /// admission, a running job unwinds from its next cancellation point.
  /// Wait() still must be called to observe the terminal state.
  void Cancel();

  JobState state() const;
  SortJobStats stats() const;

  /// Live progress of the job: current phase, records ingested/merged and
  /// bytes of I/O so far. Cheap (relaxed atomic loads) and safe to poll
  /// from any thread while the job runs; writers batch their increments,
  /// so a mid-flight snapshot can trail the truth by a bounded amount.
  /// Exact once the job is terminal. Default snapshot on an invalid
  /// handle.
  JobProgress Progress() const;

 private:
  friend class SortService;
  explicit JobHandle(std::shared_ptr<internal::SortJob> job);

  std::shared_ptr<internal::SortJob> job_;
};

/// Configuration of a SortService.
struct SortServiceOptions {
  /// Jobs running concurrently (admission gate, independent of the
  /// executor's worker count).
  size_t max_concurrent_jobs = 2;

  /// Jobs waiting for admission before Submit rejects with Busy.
  size_t max_queue_depth = 64;

  /// Process-wide memory budget the jobs' leases come from.
  MemoryGovernorOptions governor;

  /// Executor jobs (and their run generators and pipelined features) run on;
  /// null = Executor::Shared(). Must outlive the service.
  Executor* executor = nullptr;

  /// When true the service owns a MetricsRegistry and threads it through
  /// every job: per-phase latency histograms, flush/reserve-wait timings
  /// and outcome counters, surfaced via Stats().metrics. Recording is
  /// lock-free on the hot paths; turn it off to measure the (small)
  /// residual overhead or to run with zero instrumentation.
  bool enable_metrics = true;
};

/// Aggregate service counters (snapshot).
struct SortServiceStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;  ///< Submit refused: queue full or shutting down
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;

  /// Jobs admitted with a lease below their nominal memory ask.
  uint64_t shrunk_admissions = 0;

  size_t queued = 0;   ///< currently waiting for admission
  size_t running = 0;  ///< currently admitted or running
  size_t peak_queued = 0;
  size_t peak_running = 0;

  /// Registry snapshot (histograms and counters) when the service runs
  /// with enable_metrics; empty otherwise.
  MetricsSnapshot metrics;
};

/// Long-running multi-tenant sort scheduler: Submit returns immediately
/// with a JobHandle; a scheduler thread admits queued jobs FIFO under two
/// gates — the concurrency limit and a MemoryGovernor lease (shrunk under
/// load, so admission never stalls behind an oversized ask) — plans the
/// job's parallelism adaptively, and dispatches each job's whole sort onto
/// the executor. Destruction (or Shutdown) stops intake, cancels queued jobs
/// and drains running ones.
///
/// Thread-safe: Submit/Stats may be called from any thread.
class SortService {
 public:
  /// Does not take ownership of `env`, which must be safe for concurrent
  /// use (PosixEnv, MemEnv and SimDiskEnv all are) and outlive the
  /// service.
  SortService(Env* env, SortServiceOptions options);

  /// Calls Shutdown().
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Validates the spec (paths present, input exists, temp_dir writable —
  /// failing here instead of mid-sort), enqueues the job and returns a
  /// handle to it. Busy when the admission queue is full or the service
  /// is shutting down.
  Status Submit(const SortJobSpec& spec, JobHandle* handle)
      TWRS_EXCLUDES(mu_);

  /// Stops intake, finalizes still-queued jobs as cancelled and waits for
  /// running jobs to finish. Idempotent.
  void Shutdown() TWRS_EXCLUDES(mu_);

  SortServiceStats Stats() const TWRS_EXCLUDES(mu_);
  MemoryGovernorStats GovernorStats() const { return governor_.Stats(); }

  /// The service's registry; null when enable_metrics is false. Stable
  /// for the service's lifetime — callers may cache histogram pointers.
  MetricsRegistry* metrics() const { return metrics_.get(); }

  const SortServiceOptions& options() const { return options_; }

 private:
  friend class JobHandle;

  void SchedulerLoop() TWRS_EXCLUDES(mu_);

  /// Scheduler wake-up predicate: stop requested, or a job can be admitted
  /// (or finalized as cancelled) right now.
  bool SchedulerShouldWake() const TWRS_REQUIRES(mu_);

  /// Runs one admitted job on the executor: plan already fixed, lease
  /// held; releases the lease and finalizes the job when done.
  void RunJob(std::shared_ptr<internal::SortJob> job,
              std::shared_ptr<MemoryLease> lease, ParallelPlan plan);

  /// Moves a job to `state`, records `status`, notifies waiters and
  /// updates the service counters. `was_running` distinguishes jobs that
  /// held a running slot from ones finalized straight out of the queue.
  void FinishJob(const std::shared_ptr<internal::SortJob>& job,
                 JobState state, Status status, bool was_running);

  /// Removes jobs whose token fired while still queued and finalizes
  /// them as cancelled. Called by the scheduler and, through
  /// OnJobCancelled, directly on the cancelling thread.
  void SweepCancelledQueuedJobs() TWRS_EXCLUDES(mu_);

  /// JobHandle::Cancel entry point: finalizes cancelled queued jobs and
  /// wakes the scheduler and the governor so a blocked admission observes
  /// the fired token promptly.
  void OnJobCancelled() TWRS_EXCLUDES(mu_);

  Env* env_;
  SortServiceOptions options_;
  /// Declared before governor_: the governor's reserve histogram lives in
  /// this registry, so the registry must be destroyed after it.
  std::unique_ptr<MetricsRegistry> metrics_;
  MemoryGovernor governor_;
  Executor* executor_;

  /// Wake-up channel shared with every job's handles; severed (service
  /// pointer nulled) at the start of Shutdown so handles that outlive the
  /// service cannot reach into it.
  std::shared_ptr<internal::ServiceLink> link_;

  mutable Mutex mu_;
  CondVar scheduler_cv_;  ///< queue/capacity/stop changes
  CondVar drained_cv_;    ///< running_ reached zero
  std::deque<std::shared_ptr<internal::SortJob>> queue_ TWRS_GUARDED_BY(mu_);
  /// Job popped by the scheduler but still waiting for its lease; Shutdown
  /// cancels it so the blocking Reserve unwinds.
  std::shared_ptr<internal::SortJob> admitting_ TWRS_GUARDED_BY(mu_);
  size_t running_ TWRS_GUARDED_BY(mu_) = 0;
  bool stopping_ TWRS_GUARDED_BY(mu_) = false;
  SortServiceStats stats_ TWRS_GUARDED_BY(mu_);
  /// Last temp_dir that passed its submission preflight; identical
  /// directories in a burst of submissions are not re-probed.
  std::string preflighted_temp_dir_ TWRS_GUARDED_BY(mu_);

  std::thread scheduler_;
};

}  // namespace twrs

#endif  // TWRS_SERVICE_SORT_SERVICE_H_
