#include "merge/external_sorter.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/batched_replacement_selection.h"
#include "core/batched_two_way_replacement_selection.h"
#include "core/load_sort_store.h"
#include "core/run_generator.h"
#include "core/run_sink.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "io/counting_env.h"
#include "io/record_io.h"
#include "io/uring_env.h"
#include "select/dual_heap_selector.h"
#include "util/mutex.h"
#include "util/stopwatch.h"

namespace twrs {

const char* RunGenAlgorithmName(RunGenAlgorithm algorithm) {
  switch (algorithm) {
    case RunGenAlgorithm::kReplacementSelection:
      return "RS";
    case RunGenAlgorithm::kTwoWayReplacementSelection:
      return "2WRS";
    case RunGenAlgorithm::kLoadSortStore:
      return "LSS";
  }
  return "?";
}

std::unique_ptr<RunGenerator> MakeRunGenerator(RunGenAlgorithm algorithm,
                                               size_t memory_records) {
  switch (algorithm) {
    case RunGenAlgorithm::kReplacementSelection: {
      BatchedReplacementSelectionOptions brs;
      brs.memory_records = memory_records;
      brs.batch_records =
          std::min<size_t>(1024, std::max<size_t>(1, memory_records / 8));
      return std::make_unique<BatchedReplacementSelection>(brs);
    }
    case RunGenAlgorithm::kTwoWayReplacementSelection:
      return std::make_unique<BatchedTwoWayReplacementSelection>(
          TwoWayOptions::Recommended(memory_records));
    case RunGenAlgorithm::kLoadSortStore: {
      LoadSortStoreOptions lss;
      lss.memory_records = memory_records;
      return std::make_unique<LoadSortStore>(lss);
    }
  }
  return nullptr;
}

size_t MinRunGenMemoryRecords(RunGenAlgorithm algorithm) {
  return algorithm == RunGenAlgorithm::kTwoWayReplacementSelection
             ? TwoWayOptions::kMinMemoryRecords
             : 1;
}

size_t MergePhaseMemoryRecords(const ExternalSortOptions& options) {
  const size_t records_per_block =
      std::max<size_t>(1, options.block_bytes / kRecordBytes);
  // One merge holds fan_in input streams (a read block and a decoded key
  // block each) and one output buffer.
  const size_t per_merge = (2 * options.fan_in + 1) * records_per_block;
  // Merges run concurrently, each with its own buffer set: the final pass
  // splits into final_merge_threads partial merges, and MergeRuns submits
  // every intermediate merge of one plan level to the pool. Up to the
  // pool's workers + 1 of those overlap (the caller's work-helping wait
  // runs one too), and which ones depends on timing; worker_threads only
  // switches the executor's pool on, so this leg bounds nothing. ROADMAP
  // item 4 (one memory plan per sort) replaces it. The phase footprint is
  // the wider of the two stages.
  const size_t concurrency =
      std::max({size_t{1}, options.parallel.final_merge_threads,
                options.parallel.worker_threads});
  return per_merge * concurrency;
}

namespace {

void AdvancePhase(ProgressCounters* progress, SortProgressPhase phase) {
  if (progress != nullptr) progress->AdvancePhase(phase);
}

/// The sort's input as its readers share it: the dual-heap selection or
/// every run generator. One mutex around Read, so each reader takes whole
/// batches, plus the first generator failure, which every later read
/// returns so that no generator keeps consuming the input for a sort that
/// has already failed.
struct SharedInput {
  SharedInput(RecordSource* source, const ExternalSortOptions& options)
      : source(source), cancel(options.cancel), progress(options.progress) {}

  Mutex mu;
  RecordSource* const source TWRS_PT_GUARDED_BY(mu);
  Status failure TWRS_GUARDED_BY(mu);
  const CancelToken* const cancel;
  ProgressCounters* const progress;
};

/// One reader of a SharedInput; each generator has its own, since Read
/// keeps per-source state. Every read adds its records to the progress
/// counters in one call, and once the cancel token fires every read
/// returns Status::Cancelled, so a cancelled sort stops consuming within
/// a batch and unwinds with the status its generator returns.
class SharedInputReader : public RecordSource {
 public:
  explicit SharedInputReader(SharedInput* input) : input_(input) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    *n = 0;
    if (IsCancelled(input_->cancel)) {
      return Status::Cancelled("sort cancelled while reading its input");
    }
    Status s;
    {
      MutexLock lock(&input_->mu);
      if (!input_->failure.ok()) return input_->failure;
      s = input_->source->Read(out, cap, n);
    }
    if (input_->progress != nullptr && *n > 0) {
      input_->progress->AddRecordsIngested(*n);
    }
    return s;
  }

 private:
  SharedInput* input_;
};

/// The dual-heap top-K (TopKStrategy::kDualHeap): streams the input once,
/// a DualHeapSelector::kIngestBatch batch at a time, through a selector of
/// capacity options.limit and writes the selection — ascending-sorted,
/// byte-identical to a full sort truncated to its first (kAscending) or
/// last (kDescending) K records — to `output_path`. No runs, no merge, no
/// scratch files: the output is the only engine I/O.
Status SelectToOutput(Env* env, const ExternalSortOptions& options,
                      SharedInput* input, const std::string& output_path,
                      ExternalSortResult* result) {
  Stopwatch watch;
  AdvancePhase(options.progress, SortProgressPhase::kRunGeneration);
  DualHeapSelector selector(options.limit, options.order);
  SharedInputReader reader(input);
  TWRS_RETURN_IF_ERROR(selector.AddAll(&reader));
  result->run_gen.total_records = selector.consumed();
  result->run_gen_seconds = watch.ElapsedSeconds();

  AdvancePhase(options.progress, SortProgressPhase::kFinalMerge);
  const std::vector<Key> selected = selector.Take();
  RecordWriter writer(env, output_path, options.block_bytes);
  TWRS_RETURN_IF_ERROR(writer.status());
  // The selection writes the user-visible output directly — same writeback
  // and durability contract as the final merge pass of a full sort.
  writer.set_start_writeback(true);
  writer.set_sync_on_finish(true);
  TWRS_RETURN_IF_ERROR(writer.AppendBatch(selected.data(), selected.size()));
  TWRS_RETURN_IF_ERROR(writer.Finish());
  result->output_records = writer.count();
  result->merge.output_sync_seconds = writer.sync_seconds();
  result->merge.output_writeback_kicks = writer.writeback_kicks();
  if (options.progress != nullptr) {
    options.progress->AddRecordsMerged(writer.count());
  }
  if (options.metrics != nullptr) {
    options.metrics->Counter("select.dual_heap_sorts")->Increment();
    options.metrics->Histogram("select.selection_seconds")
        ->RecordSeconds(watch.ElapsedSeconds());
  }
  return Status::OK();
}

/// What one run generator produced.
struct GeneratorOutput {
  std::vector<RunInfo> runs;
  RunGenStats stats;
};

/// Runs generator `index` with `memory_records` over `input`, writing its
/// runs into `sort_dir` under the prefix sort<index>.
Status GenerateShare(Env* env, const ExternalSortOptions& options,
                     const std::string& sort_dir, SharedInput* input,
                     size_t index, size_t memory_records,
                     GeneratorOutput* out) {
  std::unique_ptr<RunGenerator> generator =
      MakeRunGenerator(options.algorithm, memory_records);
  FileRunSinkOptions sink_options;
  sink_options.block_bytes = options.block_bytes;
  if (options.metrics != nullptr) {
    sink_options.flush_histogram =
        options.metrics->Histogram("run_sink.flush_seconds");
  }
  FileRunSink sink(env, sort_dir, "sort" + std::to_string(index),
                   sink_options);
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

/// Run generation: parallel.run_generation_threads generators share the
/// memory budget and the input, the caller running the first and the pool
/// the rest, and write their runs into `sort_dir`. Appends the runs to
/// `runs` and sums the generators' stats into `result`.
Status GenerateRuns(Env* env, const ExternalSortOptions& options,
                    ThreadPool* pool, const std::string& sort_dir,
                    SharedInput* input, std::vector<RunInfo>* runs,
                    ExternalSortResult* result) {
  AdvancePhase(options.progress, SortProgressPhase::kRunGeneration);
  // Like the partitioned final merge, parallel generation needs a pool;
  // each generator needs the smallest memory its algorithm accepts, so a
  // budget that runs serially never fails for being split.
  size_t generators =
      pool != nullptr
          ? std::max<size_t>(1, options.parallel.run_generation_threads)
          : 1;
  generators = std::min(
      generators,
      std::max<size_t>(1, options.memory_records /
                              MinRunGenMemoryRecords(options.algorithm)));
  const size_t memory_records = options.memory_records / generators;

  Stopwatch watch;
  std::vector<GeneratorOutput> outputs(generators);
  // The caller runs generator 0, as PlanParallelism assumes.
  TWRS_RETURN_IF_ERROR(RunAll(pool, generators, 1, [&](size_t i) {
    return GenerateShare(env, options, sort_dir, input, i, memory_records,
                         &outputs[i]);
  }));
  if (IsCancelled(options.cancel)) {
    // The token fired after the generators' last read (e.g. during the
    // final heap drain): generation succeeded, but the job is cancelled
    // all the same.
    return Status::Cancelled("sort cancelled during run generation");
  }
  for (GeneratorOutput& out : outputs) {
    AddRunGenStats(out.stats, &result->run_gen);
    runs->insert(runs->end(), std::make_move_iterator(out.runs.begin()),
                 std::make_move_iterator(out.runs.end()));
  }
  result->run_gen_seconds = watch.ElapsedSeconds();
  if (options.metrics != nullptr) {
    options.metrics->Histogram("sort.run_generation_seconds")
        ->RecordSeconds(result->run_gen_seconds);
  }
  if (options.on_merge_begin) {
    // The heaps are gone; from here on the sort holds only merge buffers.
    // Lets a governor reclaim the difference while the merge runs.
    options.on_merge_begin(MergePhaseMemoryRecords(options));
  }
  return Status::OK();
}

/// The merge: MergeRuns' plan over `runs` into `output_path`, its
/// intermediate runs in `sort_dir`.
Status MergeToOutput(Env* env, const ExternalSortOptions& options,
                     ThreadPool* pool, const std::string& sort_dir,
                     std::vector<RunInfo> runs,
                     const std::string& output_path,
                     ExternalSortResult* result) {
  AdvancePhase(options.progress, SortProgressPhase::kFinalMerge);
  MergeOptions merge;
  merge.fan_in = options.fan_in;
  merge.block_bytes = options.block_bytes;
  merge.temp_dir = sort_dir;
  merge.temp_prefix = "sort";
  merge.pool = pool;
  merge.final_merge_threads = options.parallel.final_merge_threads;
  merge.cancel = options.cancel;
  merge.progress = options.progress;
  // Top-K (run-pruning strategy): every merge pass keeps only the limit
  // records that can reach the output — the stream's smallest for an
  // ascending selection, its largest for a descending one.
  merge.limit = options.limit;
  merge.limit_last = options.order == SelectOrder::kDescending;
  if (options.metrics != nullptr) {
    merge.flush_histogram =
        options.metrics->Histogram("merge_sink.flush_seconds");
  }
  Stopwatch watch;
  TWRS_RETURN_IF_ERROR(
      MergeRuns(env, std::move(runs), merge, output_path, &result->merge));
  result->merge_seconds = watch.ElapsedSeconds();
  if (options.metrics != nullptr) {
    options.metrics->Histogram("sort.final_merge_seconds")
        ->RecordSeconds(result->merge_seconds);
    if (options.limit > 0) {
      options.metrics->Counter("select.run_pruned_merges")->Increment();
      options.metrics->Counter("select.runs_pruned")
          ->Increment(result->merge.runs_pruned);
      options.metrics->Counter("select.records_pruned")
          ->Increment(result->merge.records_pruned);
    }
    // Mirror the io_uring submission/completion counters for sorts on the
    // uring backend.
    PublishIoUringCounters(options.metrics);
  }
  const uint64_t total = result->run_gen.total_records;
  result->output_records =
      options.limit > 0 ? std::min<uint64_t>(options.limit, total) : total;
  return Status::OK();
}

}  // namespace

ExternalSorter::ExternalSorter(Env* env, ExternalSortOptions options)
    : env_(env), options_(std::move(options)) {}

Status ExternalSorter::Sort(RecordSource* source,
                            const std::string& output_path,
                            ExternalSortResult* result) {
  // All engine I/O (runs, intermediate merges, output) goes through a
  // counting decorator so the result can report real byte volume. The
  // output path is watched so the error path knows whether this sort
  // truncated it.
  CountingEnv env(env_);
  env.WatchPath(output_path);
  if (options_.progress != nullptr) {
    env.MirrorBytesTo(options_.progress->bytes_read_counter(),
                      options_.progress->bytes_written_counter());
  }

  // The selection and every run generator read through one SharedInput,
  // which adds progress and checks the cancel token once per read.
  SharedInput input(source, options_);
  ExternalSortResult local;
  Stopwatch total_watch;
  std::string sort_dir;  // the run files' scratch directory, if any
  Status s;
  // Top-K dispatch. The dual-heap strategy replaces run generation and the
  // merge with one bounded selection pass; the run-pruning strategy is
  // the full sort with options_.limit threaded into its merge.
  local.topk_strategy =
      PlanTopKStrategy(options_.limit, options_.memory_records);
  if (local.topk_strategy == TopKStrategy::kDualHeap) {
    s = SelectToOutput(&env, options_, &input, output_path, &local);
  } else {
    if (IsCancelled(options_.cancel)) {
      return Status::Cancelled("sort cancelled before it started");
    }
    // A unique directory per sort, so concurrent sorts never collide.
    sort_dir = options_.temp_dir + "/" + UniqueScratchDirName("sort");
    TWRS_RETURN_IF_ERROR(env.CreateDirIfMissing(sort_dir));
    // The pool runs the extra generators, the leaf merges of one plan
    // level and the final merge's partitions; without it all is serial.
    const ParallelOptions& parallel = options_.parallel;
    ThreadPool* pool = nullptr;
    if (parallel.worker_threads > 0 || parallel.run_generation_threads > 1 ||
        parallel.final_merge_threads > 1) {
      pool = (parallel.executor != nullptr ? parallel.executor
                                           : &Executor::Shared())
                 ->pool();
    }
    std::vector<RunInfo> runs;
    s = GenerateRuns(&env, options_, pool, sort_dir, &input, &runs, &local);
    if (s.ok()) {
      s = MergeToOutput(&env, options_, pool, sort_dir, std::move(runs),
                        output_path, &local);
    }
  }
  if (!s.ok()) {
    // A failed or cancelled sort must not leave scratch behind: the
    // sort_dir still holds run files (and possibly intermediate merges)
    // that no later pass will consume. An output this sort truncated is
    // now torn and is removed too — but a pre-existing file the sort
    // never opened is left untouched.
    if (!sort_dir.empty()) RemoveTreeBestEffort(&env, sort_dir);
    if (env.watched_created()) {
      TWRS_IGNORE_STATUS(env.RemoveFile(output_path));  // best-effort
    }
    return s;
  }
  local.total_seconds = total_watch.ElapsedSeconds();

  if (!sort_dir.empty()) TWRS_RETURN_IF_ERROR(env.RemoveDir(sort_dir));
  local.bytes_read = env.bytes_read();
  local.bytes_written = env.bytes_written();
  AdvancePhase(options_.progress, SortProgressPhase::kComplete);
  if (result != nullptr) *result = local;
  return Status::OK();
}

Status VerifySortedFile(Env* env, const std::string& path, uint64_t* count,
                        KeyChecksum* checksum) {
  RecordReader reader(env, path);
  TWRS_RETURN_IF_ERROR(reader.status());
  uint64_t n = 0;
  Key previous = 0;
  KeyChecksum sum;
  for (;;) {
    Key key;
    bool eof;
    TWRS_RETURN_IF_ERROR(reader.Next(&key, &eof));
    if (eof) break;
    if (n > 0 && key < previous) {
      return Status::Corruption("file is not sorted at record " +
                                std::to_string(n));
    }
    previous = key;
    sum.Add(key);
    ++n;
  }
  if (count != nullptr) *count = n;
  if (checksum != nullptr) *checksum = sum;
  return Status::OK();
}

}  // namespace twrs
