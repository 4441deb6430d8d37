#include "merge/sort_phases.h"

#include <algorithm>
#include <utility>

#include "core/run_generator.h"
#include "exec/executor.h"
#include "io/uring_env.h"
#include "simd/dispatch.h"
#include "util/stopwatch.h"

namespace twrs {

namespace {

/// Truncates the input stream once the token fires, so run generation
/// stops consuming promptly even during a fill phase that emits nothing.
/// A batch pays one token check. The sink wrapper below turns the
/// cancellation into a Status, so the early EOF cannot masquerade as a
/// short-but-successful sort.
class CancellableSource : public RecordSource {
 public:
  CancellableSource(RecordSource* base, const CancelToken* cancel)
      : base_(base), cancel_(cancel) {}

  bool Next(Key* key) override {
    if (IsCancelled(cancel_)) return false;
    return base_->Next(key);
  }

  size_t NextBatch(Key* out, size_t cap) override {
    if (IsCancelled(cancel_)) return 0;
    return base_->NextBatch(out, cap);
  }

 private:
  RecordSource* base_;
  const CancelToken* cancel_;
};

/// Forwards to the real sink but fails BeginRun/Append/AppendSorted once the
/// token fires — the per-record or per-span cancellation point of the
/// run-generation loop.
/// EndRun/Finish still forward so the base sink's protocol state stays
/// consistent while the error unwinds.
class CancellableSink : public RunSink {
 public:
  CancellableSink(RunSink* base, const CancelToken* cancel)
      : base_(base), cancel_(cancel) {}

  Status BeginRun() override {
    if (IsCancelled(cancel_)) return CancelledStatus();
    return base_->BeginRun();
  }

  Status Append(RunStream stream, Key key) override {
    if (IsCancelled(cancel_)) return CancelledStatus();
    return base_->Append(stream, key);
  }

  Status AppendSorted(RunStream stream, const Key* keys, size_t n) override {
    if (IsCancelled(cancel_)) return CancelledStatus();
    return base_->AppendSorted(stream, keys, n);
  }

  Status EndRun() override {
    Status s = base_->EndRun();
    // Mirror only the newly completed run, so FillStatsFromSink works on
    // the wrapper without an O(runs^2) re-copy across the generation.
    if (base_->runs().size() > runs_.size()) {
      runs_.push_back(base_->runs().back());
    }
    return s;
  }

  Status Finish() override { return base_->Finish(); }

 private:
  static Status CancelledStatus() {
    return Status::Cancelled("sort cancelled during run generation");
  }

  RunSink* base_;
  const CancelToken* cancel_;
};

/// Counts the records run generation actually consumes. Per-record reads
/// are batched so their cost is a local increment, and the destructor
/// flushes the remainder on every exit path (EOF, cancel truncation, error
/// unwind); a NextBatch read adds its count in one call.
class ProgressSource : public RecordSource {
 public:
  static constexpr uint64_t kBatch = 1024;

  ProgressSource(RecordSource* base, ProgressCounters* progress)
      : base_(base), progress_(progress) {}

  ~ProgressSource() override {
    if (pending_ > 0) progress_->AddRecordsIngested(pending_);
  }

  bool Next(Key* key) override {
    if (!base_->Next(key)) return false;
    if (++pending_ == kBatch) {
      progress_->AddRecordsIngested(kBatch);
      pending_ = 0;
    }
    return true;
  }

  size_t NextBatch(Key* out, size_t cap) override {
    const size_t n = base_->NextBatch(out, cap);
    if (n > 0) progress_->AddRecordsIngested(n);
    return n;
  }

 private:
  RecordSource* base_;
  ProgressCounters* progress_;
  uint64_t pending_ = 0;
};

}  // namespace

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

  CancellableSource cancellable_source(source_, context->cancel);
  CancellableSink cancellable_sink(&sink, context->cancel);
  RecordSource* source = source_;
  RunSink* out = &sink;
  if (context->cancel != nullptr) {
    source = &cancellable_source;
    out = &cancellable_sink;
  }
  // Outermost wrapper, so only records the generator really received are
  // counted (a fired cancel token truncates the inner source first).
  std::unique_ptr<ProgressSource> progress_source;
  if (context->progress != nullptr) {
    progress_source =
        std::make_unique<ProgressSource>(source, context->progress);
    source = progress_source.get();
  }

  Stopwatch watch;
  TWRS_RETURN_IF_ERROR(
      generator->Generate(source, out, &context->result.run_gen));
  if (IsCancelled(context->cancel)) {
    // The token fired after the last sink call (e.g. during the final
    // heap drain): the truncated input made generation "succeed", but the
    // job is cancelled all the same.
    return Status::Cancelled("sort cancelled during run generation");
  }
  // A failed read ends the stream like EOF; only the source can tell.
  TWRS_RETURN_IF_ERROR(source_->status());
  context->result.run_gen_seconds = watch.ElapsedSeconds();
  progress_source.reset();  // flush the batched remainder before returning
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
