#include "merge/sort_phases.h"

#include <algorithm>
#include <utility>

#include "core/run_generator.h"
#include "exec/executor.h"
#include "io/uring_env.h"
#include "simd/dispatch.h"
#include "util/stopwatch.h"

namespace twrs {

Status SortInputSource::ReadSome(Key* out, size_t cap, size_t* n) {
  *n = 0;
  if (IsCancelled(cancel_)) {
    return Status::Cancelled("sort cancelled while reading its input");
  }
  const Status s = base_->Read(out, cap, n);
  if (progress_ != nullptr && *n > 0) progress_->AddRecordsIngested(*n);
  return s;
}

Status PrepareSortContext(Env* env, const ExternalSortOptions& options,
                          SortContext* context) {
  context->env = env;
  context->options = &options;
  context->cancel = options.cancel;
  context->progress = options.progress;
  context->metrics = options.metrics;
  if (IsCancelled(context->cancel)) {
    return Status::Cancelled("sort cancelled before it started");
  }
  context->sort_dir = options.temp_dir + "/" + UniqueScratchDirName("sort");
  TWRS_RETURN_IF_ERROR(env->CreateDirIfMissing(context->sort_dir));

  const ParallelOptions& parallel = options.parallel;
  if (parallel.worker_threads > 0) {
    if (parallel.dedicated_pool) {
      context->owned_pool =
          std::make_unique<ThreadPool>(parallel.worker_threads);
      context->pool = context->owned_pool.get();
    } else {
      Executor* executor = parallel.executor != nullptr
                               ? parallel.executor
                               : &Executor::Shared();
      context->pool = executor->pool();
    }
  }
  return Status::OK();
}

Status RunGenerationPhase::Run(SortContext* context) {
  const ExternalSortOptions& options = *context->options;
  if (context->progress != nullptr) {
    context->progress->AdvancePhase(SortProgressPhase::kRunGeneration);
  }
  std::unique_ptr<RunGenerator> generator = MakeRunGenerator(
      options.algorithm, options.memory_records, options.twrs);

  FileRunSinkOptions sink_options;
  sink_options.block_bytes = options.block_bytes;
  sink_options.pool = context->pool;
  if (context->metrics != nullptr) {
    sink_options.flush_histogram =
        context->metrics->Histogram("run_sink.flush_seconds");
  }
  FileRunSink sink(context->env, context->sort_dir, "sort", sink_options);

  Stopwatch watch;
  TWRS_RETURN_IF_ERROR(
      generator->Generate(source_, &sink, &context->result.run_gen));
  if (IsCancelled(context->cancel)) {
    // The token fired after the generator's last read (e.g. during the
    // final heap drain): generation succeeded, but the job is cancelled
    // all the same.
    return Status::Cancelled("sort cancelled during run generation");
  }
  context->result.run_gen_seconds = watch.ElapsedSeconds();
  if (context->metrics != nullptr) {
    context->metrics->Histogram("sort.run_generation_seconds")
        ->RecordSeconds(context->result.run_gen_seconds);
  }
  context->runs = sink.runs();
  if (options.on_merge_begin) {
    // The heaps are gone; from here on the sort holds only merge buffers.
    // Lets a governor reclaim the difference while the merge runs.
    options.on_merge_begin(MergePhaseMemoryRecords(options));
  }
  return Status::OK();
}

Status MergePlanningPhase::Run(SortContext* context) {
  const ExternalSortOptions& options = *context->options;
  if (context->progress != nullptr) {
    context->progress->AdvancePhase(SortProgressPhase::kMergePlanning);
  }
  Stopwatch watch;
  MergeOptions plan;
  plan.fan_in = options.fan_in;
  plan.block_bytes = options.block_bytes;
  plan.temp_dir = context->sort_dir;
  plan.temp_prefix = "sort";
  plan.remove_inputs = !options.keep_temp_files;
  plan.pool = context->pool;
  // Prefetching runs on dedicated pump threads, so it is independent of
  // the pool; only the pool-dispatched leaf merges require workers.
  plan.prefetch_blocks = options.parallel.prefetch_blocks;
  plan.parallel_leaf_merges =
      context->pool != nullptr && options.parallel.parallel_leaf_merges;
  // Partitioned final merges need workers to run on; without a pool the
  // knob quietly degrades to the serial pass.
  plan.final_merge_threads =
      context->pool != nullptr ? options.parallel.final_merge_threads : 1;
  plan.output_range = context->output_range;
  plan.cancel = context->cancel;
  plan.progress = context->progress;
  // Top-K (run-pruning strategy): every merge pass keeps only the limit
  // records that can reach the output — the stream's smallest for an
  // ascending selection, its largest for a descending one.
  plan.limit = options.limit;
  plan.limit_last = options.order == SelectOrder::kDescending;
  if (context->metrics != nullptr) {
    plan.flush_histogram =
        context->metrics->Histogram("merge_sink.flush_seconds");
    context->metrics->Histogram("sort.merge_planning_seconds")
        ->RecordSeconds(watch.ElapsedSeconds());
  }
  context->merge_plan = plan;
  return Status::OK();
}

Status FinalMergePhase::Run(SortContext* context) {
  const ExternalSortOptions& options = *context->options;
  if (context->progress != nullptr) {
    context->progress->AdvancePhase(SortProgressPhase::kFinalMerge);
  }
  Stopwatch watch;
  TWRS_RETURN_IF_ERROR(MergeRuns(context->env, std::move(context->runs),
                                 context->merge_plan, output_path_,
                                 &context->result.merge));
  context->result.merge_seconds = watch.ElapsedSeconds();
  if (context->metrics != nullptr) {
    context->metrics->Histogram("sort.final_merge_seconds")
        ->RecordSeconds(context->result.merge_seconds);
    if (options.limit > 0) {
      context->metrics->Counter("select.run_pruned_merges")->Increment();
      context->metrics->Counter("select.runs_pruned")
          ->Increment(context->result.merge.runs_pruned);
      context->metrics->Counter("select.records_pruned")
          ->Increment(context->result.merge.records_pruned);
    }
    // Mirror the per-kernel dispatch counters so the job's registry shows
    // which simd paths this sort actually executed, and the io_uring
    // submission/completion counters for sorts on the uring backend.
    simd::PublishKernelCounters(context->metrics);
    PublishIoUringCounters(context->metrics);
  }
  const uint64_t total = context->result.run_gen.total_records;
  context->result.output_records =
      options.limit > 0 ? std::min<uint64_t>(options.limit, total) : total;
  return Status::OK();
}

}  // namespace twrs
