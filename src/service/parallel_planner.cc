#include "service/parallel_planner.h"

#include <algorithm>

namespace twrs {

namespace {

/// Runs `generators` generators sharing `inputs.memory_records` are
/// expected to make. Each takes about input_records / generators of the
/// input and runs of about twice its memory on random input (RS and 2WRS)
/// or exactly its memory (Load-Sort-Store). An RS or 2WRS generator makes
/// about one run more than that, because its first run is shorter and its
/// last one partial (1M random records, 2WRS, 100K-300K memory, P = 1-4:
/// the model matched every measured count within two runs); an LSS
/// generator after the first may gain one partial run from an uneven
/// share.
uint64_t ExpectedRuns(const ParallelPlanInputs& inputs, size_t generators) {
  const bool lss = inputs.algorithm == RunGenAlgorithm::kLoadSortStore;
  const uint64_t memory =
      std::max<uint64_t>(1, inputs.memory_records / generators);
  const uint64_t run_length = (lss ? 1 : 2) * memory;
  const uint64_t share =
      (inputs.input_records + generators - 1) / generators;
  const uint64_t per_generator =
      std::max<uint64_t>(1, (share + run_length - 1) / run_length) +
      (lss ? 0 : 1);
  return generators * per_generator + (lss ? generators - 1 : 0);
}

/// Merge passes over the data for `runs` runs at `fan_in`: the final pass
/// plus one per level of intermediate merges.
uint64_t MergePasses(uint64_t runs, size_t fan_in) {
  const uint64_t ways = std::max<size_t>(2, fan_in);
  uint64_t passes = 1;
  while (runs > ways) {
    runs = (runs + ways - 1) / ways;
    ++passes;
  }
  return passes;
}

}  // namespace

const char* ParallelPlanLimitName(ParallelPlanLimit limit) {
  switch (limit) {
    case ParallelPlanLimit::kInputFitsInMemory:
      return "input-fits-in-memory";
    case ParallelPlanLimit::kMergePasses:
      return "merge-passes";
    case ParallelPlanLimit::kExecutorLoad:
      return "executor-load";
    case ParallelPlanLimit::kFixedByCaller:
      return "fixed";
    case ParallelPlanLimit::kTopKSelection:
      return "top-k-selection";
  }
  return "?";
}

size_t PlanTopKLeaseRecords(uint64_t limit, size_t nominal_memory_records) {
  if (limit == 0) return nominal_memory_records;
  // Floor: one block of I/O buffer either side of the selector still needs
  // backing even for K = 1, and a lease this small admits immediately
  // under any sane budget anyway.
  constexpr size_t kMinTopKLeaseRecords = 8192;
  const size_t ask = static_cast<size_t>(
      std::min<uint64_t>(limit, nominal_memory_records));
  return std::min(nominal_memory_records,
                  std::max(ask, kMinTopKLeaseRecords));
}

ParallelPlan PlanParallelism(const ParallelPlanInputs& inputs) {
  ParallelPlan plan;
  const size_t memory = std::max<size_t>(1, inputs.memory_records);
  if (inputs.input_records <= memory) {
    // One memory load: a serial generator makes one run, and the final
    // merge has nothing to split.
    plan.limit = ParallelPlanLimit::kInputFitsInMemory;
    return plan;
  }

  // A plan wider than the executor's free workers would only queue
  // generators behind each other; always leave room for at least one.
  const size_t capacity = std::max<size_t>(1, inputs.executor_capacity);
  const size_t free_workers =
      capacity > inputs.executor_inflight ? capacity - inputs.executor_inflight
                                          : 1;
  // Each generator needs the smallest memory its algorithm accepts.
  const size_t most = std::min(
      free_workers,
      std::max<size_t>(1, memory / MinRunGenMemoryRecords(inputs.algorithm)));

  const uint64_t serial_passes =
      MergePasses(ExpectedRuns(inputs, 1), inputs.fan_in);
  size_t threads = 1;
  while (threads < most &&
         MergePasses(ExpectedRuns(inputs, threads + 1), inputs.fan_in) <=
             serial_passes) {
    ++threads;
  }
  plan.run_generation_threads = threads;
  plan.limit = threads == most ? ParallelPlanLimit::kExecutorLoad
                               : ParallelPlanLimit::kMergePasses;

  // The final merge gives the workers the generators left over an equal
  // share, capped by its expected run count: more partitions than runs
  // would mostly merge air.
  const uint64_t final_threads = std::min<uint64_t>(
      std::max<size_t>(1, free_workers / threads),
      ExpectedRuns(inputs, threads));
  plan.final_merge_threads = static_cast<size_t>(final_threads);
  return plan;
}

}  // namespace twrs
