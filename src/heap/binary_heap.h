#ifndef TWRS_HEAP_BINARY_HEAP_H_
#define TWRS_HEAP_BINARY_HEAP_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "heap/sift_kernel.h"

namespace twrs {

/// Array-backed binary heap (§3.1 of the paper).
///
/// `HigherPriority(a, b)` returns true when `a` must be popped before `b`;
/// passing a less-than predicate yields a min-heap, a greater-than predicate
/// a max-heap. The tree is stored level by level in a contiguous array with
/// the classic index mapping: parent(i) = (i-1)/2, children 2i+1 and 2i+2
/// (§3.1.2), giving O(log n) Push/Pop with zero allocation after Reserve.
/// The sifts are SiftKernel's.
template <typename T, typename HigherPriority>
class BinaryHeap {
 public:
  explicit BinaryHeap(HigherPriority prior = HigherPriority())
      : prior_(std::move(prior)) {}

  /// Pre-allocates capacity for `n` elements.
  void Reserve(size_t n) { slots_.reserve(n); }

  bool empty() const { return slots_.empty(); }
  size_t size() const { return slots_.size(); }

  /// Highest-priority element. Requires non-empty.
  const T& Top() const {
    assert(!slots_.empty());
    return slots_.front();
  }

  /// Adds an element ("upheap", §3.1.1).
  void Push(const T& value) {
    slots_.push_back(value);
    Kernel().SiftUp(slots_.size() - 1, value);
  }

  /// Removes and returns the highest-priority element ("downheap", §3.1.1).
  T Pop() {
    assert(!slots_.empty());
    T top = std::move(slots_.front());
    T last = std::move(slots_.back());
    slots_.pop_back();
    if (!slots_.empty()) {
      Kernel().SiftDownFromRoot(slots_.size(), std::move(last));
    }
    return top;
  }

  /// Removes an arbitrary leaf in O(1): the last array slot. Used by the
  /// Balancing heuristic to migrate records between heaps cheaply.
  T PopLastLeaf() {
    assert(!slots_.empty());
    T leaf = slots_.back();
    slots_.pop_back();
    return leaf;
  }

  /// Verifies the heap property everywhere; O(n). Test helper.
  bool IsValidHeap() const {
    return SiftKernel<const T, HigherPriority>(slots_.data(), prior_)
        .IsHeap(slots_.size());
  }

  void Clear() { slots_.clear(); }

 private:
  SiftKernel<T, HigherPriority> Kernel() {
    return SiftKernel<T, HigherPriority>(slots_.data(), prior_);
  }

  std::vector<T> slots_;
  HigherPriority prior_;
};

}  // namespace twrs

#endif  // TWRS_HEAP_BINARY_HEAP_H_
