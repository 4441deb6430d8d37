#include "select/topk.h"

namespace twrs {

const char* SelectOrderName(SelectOrder order) {
  return order == SelectOrder::kAscending ? "asc" : "desc";
}

const char* TopKStrategyName(TopKStrategy strategy) {
  switch (strategy) {
    case TopKStrategy::kAuto:
      return "auto";
    case TopKStrategy::kDualHeap:
      return "dual-heap";
    case TopKStrategy::kRunPruningMerge:
      return "run-pruning-merge";
  }
  return "unknown";
}

TopKStrategy PlanTopKStrategy(uint64_t limit, size_t memory_records) {
  return limit <= memory_records ? TopKStrategy::kDualHeap
                                 : TopKStrategy::kRunPruningMerge;
}

TopKStrategy ResolveTopKStrategy(uint64_t limit, TopKStrategy strategy,
                                 size_t memory_records) {
  if (limit == 0) return TopKStrategy::kAuto;
  return strategy != TopKStrategy::kAuto
             ? strategy
             : PlanTopKStrategy(limit, memory_records);
}

}  // namespace twrs
