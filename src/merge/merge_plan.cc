#include "merge/merge_plan.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "merge/kway_merge.h"
#include "merge/partitioned_merge.h"

namespace twrs {

namespace {

/// One fan-in-way intermediate merge with its inputs and output slot.
struct LeafMerge {
  std::vector<RunInfo> inputs;
  std::string output_path;
  RunInfo merged;
  TaskHandle handle;
};

}  // namespace

Status MergeRuns(Env* env, std::vector<RunInfo> runs,
                 const MergeOptions& options, const std::string& output_path,
                 MergeStats* stats) {
  if (options.fan_in < 2) {
    return Status::InvalidArgument("fan_in must be at least 2");
  }
  MergeStats local;
  std::deque<RunInfo> queue(runs.begin(), runs.end());
  uint64_t temp_counter = 0;

  MergeIoOptions io;
  io.block_bytes = options.block_bytes;
  io.prefetch_blocks = options.prefetch_blocks;
  io.pool = options.pool;
  io.cancel = options.cancel;
  io.progress = options.progress;
  io.flush_histogram = options.flush_histogram;

  if (queue.empty()) {
    // Sorting an empty input produces an empty output file.
    RecordWriter writer(env, output_path, options.block_bytes);
    TWRS_RETURN_IF_ERROR(writer.status());
    writer.set_sync_on_finish(options.sync_output);
    TWRS_RETURN_IF_ERROR(writer.Finish());
    if (stats != nullptr) *stats = local;
    return Status::OK();
  }

  const bool parallel = options.pool != nullptr;

  // Intermediate passes: shrink the queue until one merge reaches the
  // final output. Note a single run still goes through one "merge" so the
  // output is always a plain forward record file.
  //
  // Both modes consume the queue in FIFO order and append merge outputs in
  // batch order, so the sequence of batch compositions — and with it the
  // stats and the bytes written — is identical. The parallel mode merely
  // dispatches every batch takeable at one level onto the pool at once
  // instead of merging it inline.
  while (queue.size() > options.fan_in) {
    if (IsCancelled(options.cancel)) {
      return Status::Cancelled("merge cancelled");
    }
    std::vector<LeafMerge> level;
    do {
      LeafMerge leaf;
      leaf.inputs.reserve(options.fan_in);
      for (size_t i = 0; i < options.fan_in; ++i) {
        leaf.inputs.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      leaf.output_path = options.temp_dir + "/" + options.temp_prefix +
                         "_tmp" + std::to_string(temp_counter++);
      level.push_back(std::move(leaf));
    } while (parallel && queue.size() > options.fan_in);

    for (LeafMerge& leaf : level) {
      if (parallel) {
        leaf.handle = options.pool->Submit([env, &leaf, &io, &options] {
          return KWayMergeLimitToFile(env, leaf.inputs, io, options.limit,
                                      options.limit_last, leaf.output_path,
                                      &leaf.merged);
        });
      } else {
        TWRS_RETURN_IF_ERROR(
            KWayMergeLimitToFile(env, leaf.inputs, io, options.limit,
                                 options.limit_last, leaf.output_path,
                                 &leaf.merged));
      }
    }
    if (parallel) {
      // Collect every result before touching the queue; report the first
      // failure only after all tasks have quiesced.
      Status first_error;
      for (LeafMerge& leaf : level) {
        Status s = leaf.handle.Wait();
        if (!s.ok() && first_error.ok()) first_error = std::move(s);
      }
      TWRS_RETURN_IF_ERROR(first_error);
    }
    for (LeafMerge& leaf : level) {
      ++local.merge_steps;
      ++local.intermediate_runs;
      local.records_written += leaf.merged.length;
      if (options.remove_inputs) {
        for (const RunInfo& run : leaf.inputs) {
          TWRS_RETURN_IF_ERROR(RemoveRunFiles(env, run));
        }
      }
      queue.push_back(std::move(leaf.merged));
    }
  }

  std::vector<RunInfo> final_batch(queue.begin(), queue.end());
  queue.clear();
  RunInfo final_run;
  FinalMergeSpec final_spec;
  final_spec.partitions =
      options.pool != nullptr ? std::max<size_t>(1, options.final_merge_threads)
                              : 1;
  final_spec.sample_size = options.final_sample_size;
  final_spec.sample_seed = options.final_sample_seed;
  final_spec.pool = options.pool;
  final_spec.limit = options.limit;
  final_spec.take_last = options.limit_last;
  MergePruneStats prune;
  final_spec.prune = &prune;
  // The final pass writes the user-visible output — the one place the
  // durability knob applies. Intermediate passes above used io with
  // sync_output's default (false).
  MergeIoOptions final_io = io;
  final_io.sync_output = options.sync_output;
  TWRS_RETURN_IF_ERROR(FinalMergeToOutput(env, final_batch, final_io,
                                          final_spec, output_path,
                                          &final_run));
  ++local.merge_steps;
  local.records_written += final_run.length;
  local.runs_pruned = prune.runs_pruned;
  local.records_pruned = prune.records_pruned;
  if (options.remove_inputs) {
    for (const RunInfo& run : final_batch) {
      TWRS_RETURN_IF_ERROR(RemoveRunFiles(env, run));
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace twrs
