#include "merge/sort_phases.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "core/run_generator.h"
#include "exec/executor.h"
#include "io/uring_env.h"
#include "util/mutex.h"
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
    Executor* executor = parallel.executor != nullptr ? parallel.executor
                                                      : &Executor::Shared();
    context->pool = executor->pool();
  }
  return Status::OK();
}

namespace {

/// The sort's input as its run generators share it: one mutex around
/// Read, so each generator takes whole batches, plus the first generator
/// failure, which every later read returns so that no generator keeps
/// consuming the input for a sort that has already failed.
struct SharedInput {
  explicit SharedInput(RecordSource* source) : source(source) {}

  Mutex mu;
  RecordSource* const source TWRS_PT_GUARDED_BY(mu);
  Status failure TWRS_GUARDED_BY(mu);
};

/// One generator's reader of a SharedInput.
class SharedInputReader : public RecordSource {
 public:
  explicit SharedInputReader(SharedInput* input) : input_(input) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    MutexLock lock(&input_->mu);
    if (!input_->failure.ok()) {
      *n = 0;
      return input_->failure;
    }
    return input_->source->Read(out, cap, n);
  }

 private:
  SharedInput* input_;
};

/// What one run generator produced.
struct GeneratorOutput {
  std::vector<RunInfo> runs;
  RunGenStats stats;
};

/// Runs generator `index` of the phase with `memory_records` over `input`,
/// writing its runs into sort_dir under the prefix sort<index>.
Status GenerateShare(SortContext* context, SharedInput* input, size_t index,
                     size_t memory_records, GeneratorOutput* out) {
  const ExternalSortOptions& options = *context->options;
  std::unique_ptr<RunGenerator> generator =
      MakeRunGenerator(options.algorithm, memory_records);
  FileRunSinkOptions sink_options;
  sink_options.block_bytes = options.block_bytes;
  if (context->metrics != nullptr) {
    sink_options.flush_histogram =
        context->metrics->Histogram("run_sink.flush_seconds");
  }
  FileRunSink sink(context->env, context->sort_dir,
                   "sort" + std::to_string(index), sink_options);
  SharedInputReader reader(input);
  const Status s = generator->Generate(&reader, &sink, &out->stats);
  if (!s.ok()) {
    MutexLock lock(&input->mu);
    if (input->failure.ok()) input->failure = s;
    return s;
  }
  out->runs = sink.runs();
  return Status::OK();
}

void AddRunGenStats(const RunGenStats& part, RunGenStats* total) {
  total->run_lengths.insert(total->run_lengths.end(),
                            part.run_lengths.begin(), part.run_lengths.end());
  total->total_records += part.total_records;
  total->diverted_next_run += part.diverted_next_run;
  total->migrated_across += part.migrated_across;
  total->victim_records += part.victim_records;
  total->victim_flushes += part.victim_flushes;
  total->presorted_batches += part.presorted_batches;
}

}  // namespace

Status RunGenerationPhase(SortContext* context, RecordSource* source) {
  const ExternalSortOptions& options = *context->options;
  if (context->progress != nullptr) {
    context->progress->AdvancePhase(SortProgressPhase::kRunGeneration);
  }
  // Like the partitioned final merge, parallel generation needs a pool;
  // each generator needs the smallest memory its algorithm accepts, so a
  // budget that runs serially never fails for being split.
  size_t generators =
      context->pool != nullptr
          ? std::max<size_t>(1, options.parallel.run_generation_threads)
          : 1;
  generators = std::min(
      generators,
      std::max<size_t>(1, options.memory_records /
                              MinRunGenMemoryRecords(options.algorithm)));
  const size_t memory_records = options.memory_records / generators;

  Stopwatch watch;
  SharedInput input(source);
  std::vector<GeneratorOutput> outputs(generators);
  std::vector<TaskHandle> handles;
  handles.reserve(generators - 1);
  for (size_t i = 1; i < generators; ++i) {
    GeneratorOutput* out = &outputs[i];
    handles.push_back(
        context->pool->Submit([context, &input, i, memory_records, out] {
          return GenerateShare(context, &input, i, memory_records, out);
        }));
  }
  Status first_error =
      GenerateShare(context, &input, 0, memory_records, &outputs[0]);
  // Collect every generator before reporting the first failure, so no
  // task still references this frame when it unwinds. The waits are
  // work-helping, so a pool with fewer free workers than generators still
  // runs them all.
  for (TaskHandle& handle : handles) {
    Status s = handle.Wait();
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  TWRS_RETURN_IF_ERROR(first_error);
  if (IsCancelled(context->cancel)) {
    // The token fired after the generators' last read (e.g. during the
    // final heap drain): generation succeeded, but the job is cancelled
    // all the same.
    return Status::Cancelled("sort cancelled during run generation");
  }
  for (GeneratorOutput& out : outputs) {
    AddRunGenStats(out.stats, &context->result.run_gen);
    context->runs.insert(context->runs.end(),
                         std::make_move_iterator(out.runs.begin()),
                         std::make_move_iterator(out.runs.end()));
  }
  context->result.run_gen_seconds = watch.ElapsedSeconds();
  if (context->metrics != nullptr) {
    context->metrics->Histogram("sort.run_generation_seconds")
        ->RecordSeconds(context->result.run_gen_seconds);
  }
  if (options.on_merge_begin) {
    // The heaps are gone; from here on the sort holds only merge buffers.
    // Lets a governor reclaim the difference while the merge runs.
    options.on_merge_begin(MergePhaseMemoryRecords(options));
  }
  return Status::OK();
}

Status MergePlanningPhase(SortContext* context) {
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
  // Partitioned final merges need workers to run on; without a pool the
  // knob quietly degrades to the serial pass.
  plan.final_merge_threads =
      context->pool != nullptr ? options.parallel.final_merge_threads : 1;
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

Status FinalMergePhase(SortContext* context, const std::string& output_path) {
  const ExternalSortOptions& options = *context->options;
  if (context->progress != nullptr) {
    context->progress->AdvancePhase(SortProgressPhase::kFinalMerge);
  }
  Stopwatch watch;
  TWRS_RETURN_IF_ERROR(MergeRuns(context->env, std::move(context->runs),
                                 context->merge_plan, output_path,
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
    // Mirror the io_uring submission/completion counters for sorts on the
    // uring backend.
    PublishIoUringCounters(context->metrics);
  }
  const uint64_t total = context->result.run_gen.total_records;
  context->result.output_records =
      options.limit > 0 ? std::min<uint64_t>(options.limit, total) : total;
  return Status::OK();
}

}  // namespace twrs
