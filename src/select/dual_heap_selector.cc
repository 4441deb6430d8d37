#include "select/dual_heap_selector.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace twrs {

DualHeapSelector::DualHeapSelector(size_t capacity, SelectOrder order)
    : capacity_(capacity), order_(order) {}

void DualHeapSelector::AddBatch(const Key* keys, size_t n) {
  consumed_ += n;
  if (capacity_ == 0) return;
  if (order_ == SelectOrder::kAscending) {
    AddWith(keys, n, std::less<Key>());
  } else {
    AddWith(keys, n, std::greater<Key>());
  }
}

template <typename Before>
void DualHeapSelector::AddWith(const Key* keys, size_t n, Before before) {
  // Reserved while filling, not at construction, so a selector refilled
  // after Take holds K keys again rather than a doubled vector.
  if (heap_.size() < capacity_) heap_.reserve(capacity_);
  size_t i = 0;
  for (; i < n && heap_.size() < capacity_; ++i) {
    heap_.push_back(keys[i]);
    std::push_heap(heap_.begin(), heap_.end(), before);
  }
  if (i == n) return;
  Key* const heap = heap_.data();
  const size_t size = heap_.size();
  Key bound = heap[0];
  // Strict comparison: an incoming key equal to the bound cannot improve
  // the selection (records are bare keys), so ties never churn the heap.
  for (; i < n; ++i) {
    const Key key = keys[i];
    if (!before(key, bound)) continue;
    // Sift the new key down from the root, moving up the child that
    // comes later in the heap's order.
    size_t hole = 0;
    for (size_t child = 1; child < size; child = 2 * hole + 1) {
      if (child + 1 < size && before(heap[child], heap[child + 1])) ++child;
      if (!before(key, heap[child])) break;
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = key;
    bound = heap[0];
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
  // Sorting a heap in place orders it by the heap's own comparator, so
  // the descending selection comes out largest-first and is reversed.
  if (order_ == SelectOrder::kAscending) {
    std::sort_heap(heap_.begin(), heap_.end(), std::less<Key>());
  } else {
    std::sort_heap(heap_.begin(), heap_.end(), std::greater<Key>());
    std::reverse(heap_.begin(), heap_.end());
  }
  std::vector<Key> keys = std::move(heap_);
  heap_.clear();
  consumed_ = 0;
  return keys;
}

}  // namespace twrs
