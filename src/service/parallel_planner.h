#ifndef TWRS_SERVICE_PARALLEL_PLANNER_H_
#define TWRS_SERVICE_PARALLEL_PLANNER_H_

#include <cstddef>
#include <cstdint>

#include "merge/external_sorter.h"

namespace twrs {

/// A thread count in ParallelPlanInputs (and SortJobSpec) that asks
/// PlanParallelism to pick it.
inline constexpr size_t kAutoRunGenerationThreads = 0;

/// Inputs of one parallelism decision for a sort.
struct ParallelPlanInputs {
  /// Records to sort (from the input file size for file sorts).
  uint64_t input_records = 0;

  /// Run-generation memory the job actually holds — its MemoryGovernor
  /// lease, not the nominal ask. The generators split it between them.
  size_t memory_records = 0;

  /// Run generation algorithm and merge fan-in of the sort: together
  /// with the memory they decide the run count, and with it the merge
  /// passes.
  RunGenAlgorithm algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;
  size_t fan_in = 10;

  /// The sort's top-K limit (ExternalSortOptions::limit); 0 = full sort.
  uint64_t limit = 0;

  /// Counts the caller fixed; 0 (kAutoRunGenerationThreads) = plan it.
  size_t run_generation_threads = kAutoRunGenerationThreads;
  size_t final_merge_threads = 0;

  /// Executor worker count and its current load (tasks submitted but not
  /// yet finished), from Executor::capacity() / inflight_tasks().
  size_t executor_capacity = 1;
  size_t executor_inflight = 0;
};

/// Why PlanParallelism stopped where it did (surfaced in service stats and
/// the twrs_sortd report, and pinned down by tests).
enum class ParallelPlanLimit {
  kInputFitsInMemory,  ///< 1 generator: the input fits one memory load
  kMergePasses,        ///< one more generator would add a merge pass
  kExecutorLoad,       ///< clipped to the executor's free workers
  kFixedByCaller,      ///< the caller fixed the generator count
  kTopKSelection,      ///< 1 generator: dual-heap selection makes no runs
};

const char* ParallelPlanLimitName(ParallelPlanLimit limit);

/// A parallelism decision for one sort.
struct ParallelPlan {
  size_t run_generation_threads = 1;
  ParallelPlanLimit limit = ParallelPlanLimit::kInputFitsInMemory;

  /// Partitions of the sort's final merge pass (1 = serial): the caller's
  /// count, or the free workers the run generators left over, at most one
  /// per expected run.
  size_t final_merge_threads = 1;
};

/// Decides the shape of one sort: its run-generation thread count P and
/// its final-merge partition count, from the input size, the memory lease,
/// the algorithm, the top-K limit, the counts the caller fixed and the
/// executor's current load. The one plan step of twrs_sort and SortService.
///
/// A top-K sort whose K fits the memory (PlanTopKStrategy) runs the
/// dual-heap selection, which makes no runs: one generator, no final merge
/// to split (kTopKSelection). Otherwise a caller-fixed P stands
/// (kFixedByCaller), an input of one memory load keeps one generator
/// (kInputFitsInMemory), and the rest is planned.
///
/// Rationale: P generators share one lease, so each holds memory / P and
/// run length, a function of memory (Chapter 6), falls by P: RS and 2WRS
/// make about N·P / (2·memory) runs, Load-Sort-Store N·P / memory, plus
/// about one partial run per generator. While the extra runs fit the same
/// number of fan_in-way merge passes they add almost no I/O, and the
/// generators split the run generation work, so the plan is the largest P,
/// up to the executor's free workers (and to memory / the algorithm's
/// smallest budget), whose expected run count needs no more merge passes
/// than P = 1. bench_parallel_sort's planner-regime rows measure this: 1M
/// random records, 300K memory, 4 workers, planned P = 3 beat P = 1 in
/// 10 of 10 rounds on the emulated disk and on the real filesystem, with
/// one merge pass and the same bytes written. Unless the caller fixed it,
/// the final merge gets the free workers the P generators leave over, at
/// most one partition per expected run.
ParallelPlan PlanParallelism(const ParallelPlanInputs& inputs);

/// Selection-aware admission ask for a top-K job: a job that will run the
/// bounded dual-heap selector holds K records of heap plus I/O buffers,
/// not the nominal run-generation budget, so asking the governor for
/// min(nominal, max(K, floor)) lets small-K jobs admit long before a full
/// sort could. A K at or above the nominal ask changes nothing — the job
/// will run the run-pruning merge with the normal budget. `limit` == 0
/// (not a top-K job) returns the nominal ask unchanged.
size_t PlanTopKLeaseRecords(uint64_t limit, size_t nominal_memory_records);

}  // namespace twrs

#endif  // TWRS_SERVICE_PARALLEL_PLANNER_H_
