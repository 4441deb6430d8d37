#ifndef TWRS_SELECT_TOPK_H_
#define TWRS_SELECT_TOPK_H_

#include <cstddef>
#include <cstdint>

namespace twrs {

/// Which end of the key domain a top-K selection keeps. The output file is
/// always ascending-sorted (the record-file invariant every merge and
/// verifier in this repo relies on); the order only chooses *which* K
/// records survive: the K smallest (kAscending — `ORDER BY key LIMIT K`)
/// or the K largest (kDescending — `ORDER BY key DESC LIMIT K`).
enum class SelectOrder {
  kAscending,
  kDescending,
};

/// Returns "asc"/"desc" for flags, logging and bench JSON.
const char* SelectOrderName(SelectOrder order);

/// How a top-K sort is executed.
enum class TopKStrategy {
  /// Let the planner choose (options), or: this was not a top-K sort
  /// (result). PlanTopKStrategy resolves it against the memory budget.
  kAuto,

  /// Bounded streaming selection: a K-capacity DualHeapSelector consumes
  /// the source in one pass and the K survivors are written directly —
  /// no runs, no merge, no scratch I/O. Requires K records of heap.
  kDualHeap,

  /// Normal run generation, then a limit-aware merge: every merge pass
  /// stops after K outputs, each input run is clamped to the K-record
  /// prefix (or suffix) that can still matter, and the final merge prunes
  /// whole runs that sampled key bounds prove cannot contribute.
  kRunPruningMerge,
};

/// Returns "auto"/"dual-heap"/"run-pruning-merge".
const char* TopKStrategyName(TopKStrategy strategy);

/// Picks the execution strategy for a top-K sort: dual-heap whenever the
/// K-record selector fits the record budget that run generation would
/// otherwise occupy, run-pruning merge when it does not. `limit` must be
/// non-zero.
TopKStrategy PlanTopKStrategy(uint64_t limit, size_t memory_records);

/// The strategy a sort with `limit` and the requested `strategy` runs: the
/// requested one when it is explicit, PlanTopKStrategy otherwise, and
/// kAuto when `limit` is 0 (not a top-K sort). The one dispatch rule
/// shared by ExternalSorter::Sort and the sort service's planner.
TopKStrategy ResolveTopKStrategy(uint64_t limit, TopKStrategy strategy,
                                 size_t memory_records);

}  // namespace twrs

#endif  // TWRS_SELECT_TOPK_H_
