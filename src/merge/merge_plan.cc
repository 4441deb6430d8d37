#include "merge/merge_plan.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "merge/partitioned_merge.h"

namespace twrs {

std::vector<MergeStep> PlanMerges(const std::vector<uint64_t>& run_lengths,
                                  size_t fan_in, uint64_t limit) {
  std::vector<MergeStep> plan;
  const size_t n = run_lengths.size();
  if (n == 0) return plan;
  const auto cap = [limit](uint64_t records) {
    return limit == 0 ? records : std::min(records, limit);
  };
  // Min-heap of (weight, node); equal weights pop in node order.
  using Entry = std::pair<uint64_t, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (size_t i = 0; i < n; ++i) heap.emplace(cap(run_lengths[i]), i);
  std::vector<size_t> node_level(n, 0);
  size_t take =
      (n - 1) % (fan_in - 1) == 0 ? fan_in : 2 + (n - 2) % (fan_in - 1);
  do {
    MergeStep step;
    uint64_t sum = 0;
    for (size_t i = 0; i < take && !heap.empty(); ++i) {
      sum += heap.top().first;
      step.inputs.push_back(heap.top().second);
      step.level = std::max(step.level, node_level[heap.top().second] + 1);
      heap.pop();
    }
    step.records = cap(sum);
    heap.emplace(step.records, n + plan.size());
    node_level.push_back(step.level);
    plan.push_back(std::move(step));
    take = fan_in;
  } while (heap.size() > 1);
  return plan;
}

MergeIoOptions MergeIoOptionsFor(const MergeOptions& options,
                                 bool final_pass) {
  MergeIoOptions io;
  io.block_bytes = options.block_bytes;
  io.cancel = options.cancel;
  io.progress = options.progress;
  io.flush_histogram = options.flush_histogram;
  io.sync_output = final_pass;
  return io;
}

Status MergeRuns(Env* env, std::vector<RunInfo> runs,
                 const MergeOptions& options, const std::string& output_path,
                 MergeStats* stats) {
  if (options.fan_in < 2) {
    return Status::InvalidArgument("fan_in must be at least 2");
  }
  MergeStats local;

  const MergeIoOptions io = MergeIoOptionsFor(options, /*final_pass=*/false);

  if (runs.empty()) {
    // Sorting an empty input produces an empty output file.
    RecordWriter writer(env, output_path, options.block_bytes);
    TWRS_RETURN_IF_ERROR(writer.status());
    writer.set_sync_on_finish(true);
    TWRS_RETURN_IF_ERROR(writer.Finish());
    if (stats != nullptr) *stats = local;
    return Status::OK();
  }

  std::vector<uint64_t> lengths;
  lengths.reserve(runs.size());
  for (const RunInfo& run : runs) lengths.push_back(run.length);
  const std::vector<MergeStep> plan = PlanMerges(lengths, options.fan_in, options.limit);
  const size_t num_intermediate = plan.size() - 1;

  // Node i < runs.size() is input run i; the rest are step outputs.
  std::vector<RunInfo> nodes = std::move(runs);
  const size_t num_runs = nodes.size();
  nodes.resize(num_runs + plan.size());

  // Both modes run the same plan, so the stats and the bytes written are
  // identical. Serial mode merges one step at a time in plan order; with
  // a pool, every step of one dependency level runs at once.
  std::vector<std::vector<size_t>> batches;
  if (options.pool != nullptr) {
    for (size_t s = 0; s < num_intermediate; ++s) {
      const size_t level = plan[s].level;
      if (batches.size() < level) batches.resize(level);
      batches[level - 1].push_back(s);
    }
  } else {
    for (size_t s = 0; s < num_intermediate; ++s) batches.push_back({s});
  }

  const auto inputs_of = [&](size_t s) {
    std::vector<RunInfo> inputs;
    inputs.reserve(plan[s].inputs.size());
    for (size_t node : plan[s].inputs) inputs.push_back(nodes[node]);
    return inputs;
  };

  for (const std::vector<size_t>& batch : batches) {
    if (IsCancelled(options.cancel)) {
      return Status::Cancelled("merge cancelled");
    }
    std::vector<std::vector<RunInfo>> batch_inputs;
    batch_inputs.reserve(batch.size());
    for (size_t s : batch) batch_inputs.push_back(inputs_of(s));
    const auto merge_step = [env, &io, &options, &batch, &batch_inputs,
                             &nodes, num_runs](size_t i) {
      const size_t s = batch[i];
      const std::string path = options.temp_dir + "/" + options.temp_prefix +
                               "_tmp" + std::to_string(s);
      return KWayMergeLimitToFile(env, batch_inputs[i], io, options.limit,
                                  options.limit_last, path,
                                  &nodes[num_runs + s]);
    };
    TWRS_RETURN_IF_ERROR(RunAll(options.pool, batch.size(), 0, merge_step));
    for (size_t i = 0; i < batch.size(); ++i) {
      ++local.merge_steps;
      ++local.intermediate_runs;
      local.records_written += nodes[num_runs + batch[i]].length;
      if (options.remove_inputs) {
        for (const RunInfo& run : batch_inputs[i]) {
          TWRS_RETURN_IF_ERROR(RemoveRunFiles(env, run));
        }
      }
    }
  }

  const std::vector<RunInfo> final_batch = inputs_of(num_intermediate);
  TWRS_RETURN_IF_ERROR(
      FinalMergeToOutput(env, final_batch, options, output_path, &local));
  if (options.remove_inputs) {
    for (const RunInfo& run : final_batch) {
      TWRS_RETURN_IF_ERROR(RemoveRunFiles(env, run));
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace twrs
