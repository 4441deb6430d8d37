#include "service/sort_service.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/record.h"
#include "exec/executor.h"
#include "io/uring_env.h"
#include "workload/generators.h"

namespace twrs {

namespace internal {

/// Wake-up channel between JobHandles and their service. Handles may
/// outlive the service, so Cancel cannot dereference a raw back-pointer:
/// the link is shared, its `service` field is nulled under `mu` at the
/// start of Shutdown, and a Cancel that loses that race simply skips the
/// wake-up (Shutdown finalizes every job itself). A Cancel that wins it
/// holds `mu` through the wake-up, which blocks Shutdown — and therefore
/// destruction — until the service call returns.
struct ServiceLink {
  Mutex mu;
  SortService* service TWRS_GUARDED_BY(mu) = nullptr;
};

/// Shared state of one job, owned jointly by the service (queue, scheduler,
/// executor task) and every JobHandle copy.
struct SortJob {
  SortJobSpec spec;
  CancelToken cancel;
  Stopwatch submitted_at;

  /// Live progress, updated from the sort's hot paths with relaxed
  /// atomics; internally synchronized, so unguarded.
  ProgressCounters progress;

  /// Wake-up channel for JobHandle::Cancel (see ServiceLink). Set once
  /// before the job is published; immutable afterwards, so unguarded.
  std::shared_ptr<ServiceLink> link;

  mutable Mutex mu;
  CondVar cv;
  JobState state TWRS_GUARDED_BY(mu) = JobState::kQueued;
  Status status TWRS_GUARDED_BY(mu);
  size_t granted_memory_records TWRS_GUARDED_BY(mu) = 0;
  size_t downsized_memory_records TWRS_GUARDED_BY(mu) = 0;
  size_t planned_run_generation_threads TWRS_GUARDED_BY(mu) = 0;
  size_t planned_final_merge_threads TWRS_GUARDED_BY(mu) = 0;
  ParallelPlanLimit plan_limit TWRS_GUARDED_BY(mu) =
      ParallelPlanLimit::kInputFitsInMemory;
  double queue_seconds TWRS_GUARDED_BY(mu) = 0.0;
  double total_seconds TWRS_GUARDED_BY(mu) = 0.0;
  ExternalSortResult result TWRS_GUARDED_BY(mu);
};

namespace {

bool IsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

}  // namespace

}  // namespace internal

using internal::SortJob;

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kAdmitted:
      return "admitted";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

JobHandle::JobHandle(std::shared_ptr<SortJob> job) : job_(std::move(job)) {}

JobHandle::~JobHandle() = default;

Status JobHandle::Wait() {
  if (job_ == nullptr) return Status::OK();
  MutexLock lock(&job_->mu);
  while (!internal::IsTerminal(job_->state)) job_->cv.Wait(job_->mu);
  return job_->status;
}

void JobHandle::Cancel() {
  if (job_ == nullptr) return;
  job_->cancel.Cancel();
  std::shared_ptr<internal::ServiceLink> link;
  {
    MutexLock lock(&job_->mu);
    if (internal::IsTerminal(job_->state)) return;
    link = job_->link;
  }
  if (link == nullptr) return;
  MutexLock lock(&link->mu);
  if (link->service != nullptr) link->service->OnJobCancelled();
}

JobState JobHandle::state() const {
  if (job_ == nullptr) return JobState::kCancelled;
  MutexLock lock(&job_->mu);
  return job_->state;
}

JobProgress JobHandle::Progress() const {
  if (job_ == nullptr) return JobProgress();
  return job_->progress.Snapshot();
}

SortJobStats JobHandle::stats() const {
  SortJobStats stats;
  if (job_ == nullptr) return stats;
  MutexLock lock(&job_->mu);
  stats.state = job_->state;
  stats.status = job_->status;
  stats.nominal_memory_records = job_->spec.sort.memory_records;
  stats.granted_memory_records = job_->granted_memory_records;
  stats.downsized_memory_records = job_->downsized_memory_records;
  stats.planned_run_generation_threads =
      job_->planned_run_generation_threads;
  stats.planned_final_merge_threads = job_->planned_final_merge_threads;
  stats.plan_limit = job_->plan_limit;
  stats.queue_seconds = job_->queue_seconds;
  stats.total_seconds = job_->total_seconds;
  stats.result = job_->result;
  return stats;
}

SortService::SortService(Env* env, SortServiceOptions options)
    : env_(env),
      options_(options),
      metrics_(options.enable_metrics ? std::make_unique<MetricsRegistry>()
                                      : nullptr),
      governor_(options.governor),
      executor_(options.executor != nullptr ? options.executor
                                            : &Executor::Shared()),
      link_(std::make_shared<internal::ServiceLink>()) {
  options_.max_concurrent_jobs =
      std::max<size_t>(1, options_.max_concurrent_jobs);
  // Depth 0 would reject every Submit; the smallest useful queue is 1.
  options_.max_queue_depth = std::max<size_t>(1, options_.max_queue_depth);
  if (metrics_ != nullptr) {
    governor_.set_reserve_histogram(
        metrics_->Histogram("governor.reserve_wait_seconds"));
  }
  link_->service = this;
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

SortService::~SortService() { Shutdown(); }

Status SortService::Submit(const SortJobSpec& spec, JobHandle* handle) {
  if (spec.input_path.empty() || spec.output_path.empty()) {
    return Status::InvalidArgument(
        "job needs both an input_path and an output_path");
  }
  if (spec.sort.memory_records == 0) {
    return Status::InvalidArgument("memory_records must be positive");
  }
  if (!env_->FileExists(spec.input_path)) {
    return Status::NotFound("input file " + spec.input_path +
                            " does not exist");
  }
  // Catch an unusable scratch directory at submission time, not minutes
  // into run generation. Probing costs a handful of filesystem calls, so
  // a directory that already passed is not re-probed on every Submit of
  // a burst.
  bool preflight_needed;
  {
    MutexLock lock(&mu_);
    preflight_needed = spec.sort.temp_dir != preflighted_temp_dir_;
  }
  if (preflight_needed) {
    TWRS_RETURN_IF_ERROR(PreflightTempDir(env_, spec.sort.temp_dir));
    MutexLock lock(&mu_);
    preflighted_temp_dir_ = spec.sort.temp_dir;
  }

  auto job = std::make_shared<SortJob>();
  job->spec = spec;
  job->spec.sort.cancel = nullptr;  // the job's own token is authoritative
  job->link = link_;
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      ++stats_.rejected;
      if (metrics_ != nullptr) {
        metrics_->Counter("service.jobs_rejected")->Increment();
      }
      return Status::Busy("sort service is shutting down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      ++stats_.rejected;
      if (metrics_ != nullptr) {
        metrics_->Counter("service.jobs_rejected")->Increment();
      }
      return Status::Busy(
          "admission queue full (depth " +
          std::to_string(options_.max_queue_depth) + ")");
    }
    ++stats_.submitted;
    queue_.push_back(job);
    stats_.peak_queued = std::max(stats_.peak_queued, queue_.size());
  }
  if (metrics_ != nullptr) {
    metrics_->Counter("service.jobs_submitted")->Increment();
  }
  scheduler_cv_.NotifyOne();
  if (handle != nullptr) *handle = JobHandle(std::move(job));
  return Status::OK();
}

bool SortService::SchedulerShouldWake() const {
  if (stopping_) return true;
  if (queue_.empty()) return false;
  if (running_ < options_.max_concurrent_jobs) return true;
  // Cancelled jobs are finalized even at full concurrency.
  for (const auto& queued : queue_) {
    if (queued->cancel.cancelled()) return true;
  }
  return false;
}

void SortService::SchedulerLoop() {
  for (;;) {
    std::shared_ptr<SortJob> job;
    {
      MutexLock lock(&mu_);
      while (!SchedulerShouldWake()) scheduler_cv_.Wait(mu_);
      if (stopping_) return;
      if (!queue_.empty() && running_ < options_.max_concurrent_jobs) {
        job = queue_.front();
        queue_.pop_front();
        admitting_ = job;
      }
    }
    // Jobs cancelled while queued never admit; finalize them without
    // waiting for a running slot. (OnJobCancelled also sweeps, so a
    // cancelled job is finalized even while this thread is blocked in
    // Reserve below — this sweep catches tokens fired without a handle
    // wake-up.)
    SweepCancelledQueuedJobs();
    if (job == nullptr) continue;

    // Admission: block for a (possibly shrunk) memory lease. FIFO both
    // here and inside the governor, so job order is submission order.
    // Top-K jobs ask selection-aware: a bounded dual-heap selection holds
    // K records, not the nominal run-generation budget, so small-K jobs
    // admit ahead of what a full sort's ask would allow.
    const size_t ask = PlanTopKLeaseRecords(job->spec.sort.limit,
                                            job->spec.sort.memory_records);
    MemoryLease lease;
    Stopwatch reserve_watch;
    Status reserve_status = governor_.Reserve(ask, &lease, &job->cancel);
    if (metrics_ != nullptr) {
      metrics_->Histogram("service.admission_reserve_seconds")
          ->RecordSeconds(reserve_watch.ElapsedSeconds());
    }
    {
      MutexLock lock(&mu_);
      admitting_.reset();
    }
    if (!reserve_status.ok()) {
      FinishJob(job,
                reserve_status.IsCancelled() ? JobState::kCancelled
                                             : JobState::kFailed,
                std::move(reserve_status), /*was_running=*/false);
      continue;
    }

    {
      MutexLock lock(&job->mu);
      job->state = JobState::kAdmitted;
      job->granted_memory_records = lease.records();
      job->queue_seconds = job->submitted_at.ElapsedSeconds();
      if (metrics_ != nullptr) {
        metrics_->Histogram("service.queue_seconds")
            ->RecordSeconds(job->queue_seconds);
      }
    }

    // Best-effort input-size probe: gives the job's progress snapshot its
    // denominator and, in auto mode, feeds the planner. On error
    // total_records stays 0 (unknown) and the planner sees zero records,
    // so it simply plans a single generator.
    uint64_t input_bytes = 0;
    TWRS_IGNORE_STATUS(env_->GetFileSize(job->spec.input_path, &input_bytes));
    const uint64_t input_records = input_bytes / kRecordBytes;
    job->progress.set_total_records(input_records);
    job->progress.set_total_output_records(
        job->spec.sort.limit > 0
            ? std::min<uint64_t>(job->spec.sort.limit, input_records)
            : input_records);

    // Plan step: fixed generator count from the spec, or adaptive from
    // input size, the lease actually granted and the executor's current
    // load. A top-K job that will run the dual-heap selection makes no
    // runs, so it plans one generator whatever the spec pinned.
    const ExternalSortOptions& sort = job->spec.sort;
    const bool dual_heap =
        ResolveTopKStrategy(sort.limit, sort.topk_strategy,
                            lease.records()) == TopKStrategy::kDualHeap;
    ParallelPlan plan;
    if (dual_heap) {
      plan.limit = ParallelPlanLimit::kTopKSelection;
    } else if (job->spec.run_generation_threads !=
               kAutoRunGenerationThreads) {
      plan.run_generation_threads = job->spec.run_generation_threads;
      plan.limit = ParallelPlanLimit::kFixedByCaller;
    } else {
      ParallelPlanInputs inputs;
      inputs.input_records = input_records;
      inputs.memory_records = lease.records();
      inputs.algorithm = sort.algorithm;
      inputs.fan_in = sort.fan_in;
      inputs.executor_capacity = executor_->capacity();
      inputs.executor_inflight = executor_->inflight_tasks();
      plan = PlanParallelism(inputs);
    }

    {
      MutexLock lock(&mu_);
      if (lease.records() < ask) {
        ++stats_.shrunk_admissions;
      }
      ++running_;
      stats_.peak_running = std::max(stats_.peak_running, running_);
    }
    // std::function needs copyable captures; the move-only lease rides in
    // a shared_ptr.
    auto shared_lease = std::make_shared<MemoryLease>(std::move(lease));
    executor_->pool()->Submit([this, job, shared_lease, plan] {
      RunJob(job, shared_lease, plan);
      return Status::OK();
    });
  }
}

void SortService::RunJob(std::shared_ptr<SortJob> job,
                         std::shared_ptr<MemoryLease> lease,
                         ParallelPlan plan) {
  // A pinned spec value overrides the planner; 0 means planner's choice.
  const size_t final_merge_threads = job->spec.final_merge_threads != 0
                                         ? job->spec.final_merge_threads
                                         : plan.final_merge_threads;
  {
    MutexLock lock(&job->mu);
    job->state = JobState::kRunning;
    job->planned_run_generation_threads = plan.run_generation_threads;
    job->planned_final_merge_threads = final_merge_threads;
    job->plan_limit = plan.limit;
  }

  ExternalSortOptions options = job->spec.sort;
  options.memory_records = lease->records();  // the governed budget
  options.cancel = &job->cancel;
  options.progress = &job->progress;
  options.metrics = metrics_.get();
  options.parallel.run_generation_threads =
      std::max<size_t>(1, plan.run_generation_threads);
  options.parallel.final_merge_threads =
      std::max<size_t>(1, final_merge_threads);
  if (options.parallel.executor == nullptr) {
    options.parallel.executor = executor_;
  }
  // Dynamic lease renegotiation (the merge needs far less memory than the
  // heaps): once run generation is over, return the surplus so the
  // governor can admit the next queued job while this one merges.
  options.on_merge_begin = [job, lease](size_t merge_records) {
    const size_t before = lease->records();
    lease->Downsize(merge_records);
    const size_t after = lease->records();
    if (after < before) {
      MutexLock lock(&job->mu);
      job->downsized_memory_records = after;
    }
  };

  ExternalSorter sorter(env_, options);
  FileRecordSource source(env_, job->spec.input_path, options.block_bytes);
  ExternalSortResult result;
  Status status = sorter.Sort(&source, job->spec.output_path, &result);
  lease->Release();  // before finalizing: a woken waiter must see the budget

  JobState terminal = JobState::kDone;
  if (status.IsCancelled()) {
    terminal = JobState::kCancelled;
  } else if (!status.ok()) {
    terminal = JobState::kFailed;
  } else {
    MutexLock lock(&job->mu);
    job->result = std::move(result);
  }
  FinishJob(job, terminal, std::move(status), /*was_running=*/true);
}

void SortService::FinishJob(const std::shared_ptr<SortJob>& job,
                            JobState state, Status status, bool was_running) {
  // Outcome counters first: once the job's waiters wake, a Stats() call
  // must already see this job counted.
  {
    MutexLock lock(&mu_);
    switch (state) {
      case JobState::kDone:
        ++stats_.completed;
        break;
      case JobState::kCancelled:
        ++stats_.cancelled;
        break;
      default:
        ++stats_.failed;
        break;
    }
  }
  if (metrics_ != nullptr) {
    const char* outcome = state == JobState::kDone        ? "completed"
                          : state == JobState::kCancelled ? "cancelled"
                                                          : "failed";
    metrics_->Counter(std::string("service.jobs_") + outcome)->Increment();
  }
  {
    MutexLock lock(&job->mu);
    job->state = state;
    job->status = std::move(status);
    job->total_seconds = job->submitted_at.ElapsedSeconds();
    if (metrics_ != nullptr) {
      metrics_->Histogram("service.total_seconds")
          ->RecordSeconds(job->total_seconds);
    }
  }
  job->cv.NotifyAll();
  // The running slot is given back last, with the notifies under the lock:
  // running_ == 0 releases ~SortService, so this must be FinishJob's final
  // touch of the service.
  {
    MutexLock lock(&mu_);
    if (was_running) --running_;
    scheduler_cv_.NotifyAll();
    drained_cv_.NotifyAll();
  }
}

void SortService::SweepCancelledQueuedJobs() {
  std::vector<std::shared_ptr<SortJob>> cancelled_jobs;
  {
    MutexLock lock(&mu_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->cancel.cancelled()) {
        cancelled_jobs.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& cancelled : cancelled_jobs) {
    FinishJob(cancelled, JobState::kCancelled,
              Status::Cancelled("job cancelled while queued"),
              /*was_running=*/false);
  }
}

void SortService::OnJobCancelled() {
  // Finalize cancelled queued jobs right here on the caller's thread: the
  // scheduler may be blocked in a Reserve for a different job for
  // arbitrarily long, and a cancelled queued job needs no resources to
  // reach its terminal state.
  SweepCancelledQueuedJobs();
  governor_.WakeWaiters();
  scheduler_cv_.NotifyAll();
}

void SortService::Shutdown() {
  // Sever the JobHandle::Cancel wake-up channel first: once the link is
  // nulled no handle can re-enter the service, and a Cancel already past
  // the null check finishes before this lock is granted.
  {
    MutexLock lock(&link_->mu);
    link_->service = nullptr;
  }
  std::deque<std::shared_ptr<SortJob>> leftover;
  std::shared_ptr<SortJob> admitting;
  bool already_stopping;
  {
    MutexLock lock(&mu_);
    already_stopping = stopping_;
    stopping_ = true;
    leftover.swap(queue_);
    admitting = admitting_;
  }
  scheduler_cv_.NotifyAll();
  // The job mid-admission unwinds out of its blocking Reserve.
  if (admitting != nullptr) admitting->cancel.Cancel();
  governor_.WakeWaiters();
  if (scheduler_.joinable()) scheduler_.join();

  if (!already_stopping) {
    for (const auto& job : leftover) {
      job->cancel.Cancel();
      FinishJob(job, JobState::kCancelled,
                Status::Cancelled("sort service shut down"),
                /*was_running=*/false);
    }
  }

  // Running jobs finish on their own (or unwind from their cancellation
  // points if the caller cancelled them); wait them out so no executor
  // task references this service after destruction.
  MutexLock lock(&mu_);
  while (running_ != 0) drained_cv_.Wait(mu_);
}

SortServiceStats SortService::Stats() const {
  SortServiceStats stats;
  {
    MutexLock lock(&mu_);
    stats = stats_;
    stats.queued = queue_.size();
    stats.running = running_;
  }
  // Outside mu_: the registry has its own lock, and snapshotting every
  // histogram is too much work to hold the scheduler's mutex across.
  if (metrics_ != nullptr) {
    PublishIoUringCounters(metrics_.get());
    stats.metrics = metrics_->Snapshot();
  }
  return stats;
}

}  // namespace twrs
