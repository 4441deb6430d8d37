#include "merge/external_sorter.h"

#include <algorithm>
#include <memory>

#include "core/batched_replacement_selection.h"
#include "core/batched_two_way_replacement_selection.h"
#include "core/load_sort_store.h"
#include "core/replacement_selection.h"
#include "core/run_generator.h"
#include "core/run_sink.h"
#include "io/counting_env.h"
#include "io/record_io.h"
#include "merge/sort_phases.h"
#include "select/topk_sort.h"
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
    case RunGenAlgorithm::kBatchedReplacementSelection:
      return "BatchedRS";
  }
  return "?";
}

std::unique_ptr<RunGenerator> MakeRunGenerator(RunGenAlgorithm algorithm,
                                               size_t memory_records,
                                               const TwoWayOptions& twrs) {
  switch (algorithm) {
    case RunGenAlgorithm::kReplacementSelection: {
      ReplacementSelectionOptions rs;
      rs.memory_records = memory_records;
      return std::make_unique<ReplacementSelection>(rs);
    }
    case RunGenAlgorithm::kTwoWayReplacementSelection: {
      TwoWayOptions options = twrs;
      options.memory_records = memory_records;
      // The §5.3 recommended pair runs batched; every other pair runs the
      // record-at-a-time reference.
      if (BatchedTwoWayReplacementSelection::Supports(options)) {
        return std::make_unique<BatchedTwoWayReplacementSelection>(options);
      }
      return std::make_unique<TwoWayReplacementSelection>(options);
    }
    case RunGenAlgorithm::kLoadSortStore: {
      LoadSortStoreOptions lss;
      lss.memory_records = memory_records;
      return std::make_unique<LoadSortStore>(lss);
    }
    case RunGenAlgorithm::kBatchedReplacementSelection: {
      BatchedReplacementSelectionOptions brs;
      brs.memory_records = memory_records;
      brs.batch_records =
          std::min<size_t>(1024, std::max<size_t>(1, memory_records / 8));
      return std::make_unique<BatchedReplacementSelection>(brs);
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
  // splits into final_merge_threads partial merges, and the
  // pool-dispatched intermediate merges of one plan level can hold one
  // merge's buffers per worker (worker_threads is usually 1, since the
  // pool is the executor's, so this leg is a floor, not an exact bound).
  // The phase footprint is the wider of the two stages.
  const size_t concurrency =
      std::max({size_t{1}, options.parallel.final_merge_threads,
                options.parallel.worker_threads});
  return per_merge * concurrency;
}

ExternalSorter::ExternalSorter(Env* env, ExternalSortOptions options)
    : env_(env), options_(std::move(options)) {}

Status ExternalSorter::Sort(RecordSource* source,
                            const std::string& output_path,
                            ExternalSortResult* result) {
  // A non-default io_backend swaps the constructor-injected Env for the
  // requested process-wide backend before any file is touched. kUring on
  // an unsupported kernel/build fails the whole sort here — loudly, not
  // with a mid-sort surprise.
  Env* base_env = env_;
  if (options_.io_backend != IoBackend::kDefault) {
    IoBackend resolved = IoBackend::kDefault;
    TWRS_RETURN_IF_ERROR(ResolveIoBackend(options_.io_backend, &resolved));
    if (resolved != IoBackend::kDefault) {
      base_env = Env::Default(resolved);
    }
  }

  // All engine I/O (runs, intermediate merges, output) goes through a
  // counting decorator so the result can report real byte volume. The
  // output path is watched so the error path knows whether this sort
  // truncated it.
  CountingEnv env(base_env);
  env.WatchPath(output_path);
  if (options_.progress != nullptr) {
    env.MirrorBytesTo(options_.progress->bytes_read_counter(),
                      options_.progress->bytes_written_counter());
  }

  // The selection and every run generator read through one decorator,
  // which adds progress and checks the cancel token once per read.
  SortInputSource input(source, options_.cancel, options_.progress);

  // Top-K dispatch. The dual-heap strategy replaces the whole run-gen +
  // merge pipeline with one bounded selection pass; the run-pruning
  // strategy is the normal pipeline with options_.limit threaded into the
  // merge plan (see MergePlanningPhase), so it runs the phases below
  // unchanged.
  const TopKStrategy strategy = ResolveTopKStrategy(
      options_.limit, options_.topk_strategy, options_.memory_records);
  if (strategy == TopKStrategy::kDualHeap) {
    Stopwatch total_watch;
    ExternalSortResult local;
    Status s = DualHeapSelectToFile(&env, options_, &input, output_path,
                                    &local);
    if (!s.ok()) {
      if (env.watched_created()) {
        TWRS_IGNORE_STATUS(env.RemoveFile(output_path));  // best-effort
      }
      return s;
    }
    local.total_seconds = total_watch.ElapsedSeconds();
    local.topk_strategy = TopKStrategy::kDualHeap;
    local.bytes_read = env.bytes_read();
    local.bytes_written = env.bytes_written();
    if (result != nullptr) *result = local;
    return Status::OK();
  }

  SortContext context;
  TWRS_RETURN_IF_ERROR(PrepareSortContext(&env, options_, &context));

  Stopwatch total_watch;
  Status s = RunGenerationPhase(&context, &input);
  if (s.ok()) s = MergePlanningPhase(&context);
  if (s.ok()) s = FinalMergePhase(&context, output_path);
  if (!s.ok()) {
    // A failed or cancelled sort must not leave scratch behind: the
    // sort_dir still holds run files (and possibly intermediate merges)
    // that no later pass will consume. An output this sort truncated is
    // now torn and is removed too — but a pre-existing file the sort
    // never opened is left untouched.
    if (!options_.keep_temp_files) {
      RemoveTreeBestEffort(&env, context.sort_dir);
    }
    if (env.watched_created()) {
      TWRS_IGNORE_STATUS(env.RemoveFile(output_path));  // best-effort
    }
    return s;
  }
  context.result.total_seconds = total_watch.ElapsedSeconds();

  if (!options_.keep_temp_files) {
    TWRS_RETURN_IF_ERROR(env.RemoveDir(context.sort_dir));
  }
  context.result.bytes_read = env.bytes_read();
  context.result.bytes_written = env.bytes_written();
  context.result.topk_strategy = strategy;
  if (result != nullptr) *result = context.result;
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
