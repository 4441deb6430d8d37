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

/// How a top-K sort is executed: PlanTopKStrategy's choice, which
/// ExternalSortResult::topk_strategy reports.
enum class TopKStrategy {
  /// Not a top-K sort (limit 0).
  kNone,

  /// Bounded streaming selection: a K-capacity DualHeapSelector consumes
  /// the source in one pass and the K survivors are written directly —
  /// no runs, no merge, no scratch I/O. Holds K records of heap.
  kDualHeap,

  /// Normal run generation, then a limit-aware merge: every merge pass
  /// stops after K outputs, each input run is clamped to the K-record
  /// prefix (or suffix) that can still matter, and the final merge prunes
  /// whole runs that sampled key bounds prove cannot contribute.
  kRunPruningMerge,
};

/// Returns "none"/"dual-heap"/"run-pruning-merge".
const char* TopKStrategyName(TopKStrategy strategy);

/// The strategy a sort with `limit` runs in `memory_records`: kNone when
/// `limit` is 0, the dual heap whenever its K-record selector fits the
/// budget run generation would otherwise hold, the run-pruning merge when
/// it does not. The one dispatch rule: ExternalSorter::Sort runs what it
/// returns, and PlanParallelism plans for it.
TopKStrategy PlanTopKStrategy(uint64_t limit, size_t memory_records);

}  // namespace twrs

#endif  // TWRS_SELECT_TOPK_H_
