#include "select/dual_heap_selector.h"

#include <algorithm>

namespace twrs {

DualHeapSelector::DualHeapSelector(size_t capacity, SelectOrder order)
    : capacity_(capacity),
      order_(order),
      // Ascending selection keeps the K smallest: the Bottom side's
      // max-heap root is the worst kept record. Descending mirrors it.
      side_(order == SelectOrder::kAscending ? HeapSide::kBottom
                                             : HeapSide::kTop),
      heap_(capacity) {}

void DualHeapSelector::AddBatch(const Key* keys, size_t n) {
  consumed_ += n;
  if (capacity_ == 0) return;
  size_t i = 0;
  for (; i < n && heap_.size() < capacity_; ++i) {
    heap_.Push(side_, TaggedRecord{keys[i], 0});
  }
  if (i == n) return;
  // Strict comparison: an incoming key equal to the bound cannot improve
  // the selection (records are bare keys), so ties never churn the heap.
  if (order_ == SelectOrder::kAscending) {
    ReplaceLosers(keys + i, n - i, [](Key a, Key b) { return a < b; });
  } else {
    ReplaceLosers(keys + i, n - i, [](Key a, Key b) { return a > b; });
  }
}

template <typename Beats>
void DualHeapSelector::ReplaceLosers(const Key* keys, size_t n, Beats beats) {
  Key bound = heap_.Top(side_).key;
  for (size_t i = 0; i < n; ++i) {
    if (beats(keys[i], bound)) {
      heap_.ReplaceTop(side_, TaggedRecord{keys[i], 0});
      bound = heap_.Top(side_).key;
    }
  }
}

Status DualHeapSelector::AddAll(RecordSource* source) {
  std::vector<Key> batch(kIngestBatch);
  // A short read is the end of the input.
  for (size_t got = batch.size(); got == batch.size();) {
    TWRS_RETURN_IF_ERROR(source->Read(batch.data(), batch.size(), &got));
    AddBatch(batch.data(), got);
  }
  return Status::OK();
}

std::vector<Key> DualHeapSelector::Take() {
  std::vector<Key> keys;
  keys.reserve(heap_.size());
  // Bottom (max-heap) pops descending; Top (min-heap) pops ascending.
  while (!heap_.Empty(side_)) keys.push_back(heap_.Pop(side_).key);
  if (order_ == SelectOrder::kAscending) {
    std::reverse(keys.begin(), keys.end());
  }
  consumed_ = 0;
  return keys;
}

Status SelectTopK(RecordSource* source, size_t k, SelectOrder order,
                  std::vector<Key>* out, uint64_t* consumed) {
  DualHeapSelector selector(k, order);
  TWRS_RETURN_IF_ERROR(selector.AddAll(source));
  if (consumed != nullptr) *consumed = selector.consumed();
  *out = selector.Take();
  return Status::OK();
}

}  // namespace twrs
