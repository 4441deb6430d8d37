#ifndef TWRS_HEAP_SIFT_KERNEL_H_
#define TWRS_HEAP_SIFT_KERNEL_H_

#include <cstddef>
#include <utility>

namespace twrs {

/// How a heap's logical indices map onto its contiguous slots.
enum class HeapDirection {
  kForward,   ///< logical i lives at base[i] (BinaryHeap, DoubleHeap Bottom)
  kBackward,  ///< logical i lives at base[-1 - i] (DoubleHeap Top)
};

/// The one sift implementation behind every array heap in the library
/// (§3.1): BinaryHeap and both sides of DoubleHeap are views through it.
///
/// `Before(a, b)` returns true when `a` must be popped before `b`. For a
/// forward heap `base` is the first slot; for a backward heap it is one
/// past the last slot, so the heap grows toward lower addresses (the
/// DoubleHeap TopHeap, Fig. 4.3). The kernel holds no size: callers pass
/// it, and slots at logical indices >= size are never read.
///
/// Both sifts move a hole rather than swapping. Removing the root uses
/// Floyd's bottom-up sift: the hole descends the better-child path (left
/// child on ties) to a leaf without comparing against the displaced
/// record, which then sifts up. That record usually came from a leaf, so
/// it belongs near the bottom and the descent saves one comparison per
/// level. The layout equals that of the classic top-down sift except in
/// where the record lands among records that compare equal to it; under a
/// comparator whose equal records are identical (every one in this repo),
/// the arrays are identical.
template <typename T, typename Before,
          HeapDirection kDirection = HeapDirection::kForward>
class SiftKernel {
 public:
  explicit SiftKernel(T* base, Before before = Before())
      : base_(base), before_(std::move(before)) {}

  /// Slot of logical index `i`.
  T& Slot(size_t i) const {
    return kDirection == HeapDirection::kForward ? base_[i] : *(base_ - 1 - i);
  }

  /// Stores `value` at logical index `hole` (the new last slot, or the hole
  /// left by a bottom-up descent) and moves it up past every ancestor it
  /// must be popped before ("upheap", §3.1.1).
  void SiftUp(size_t hole, T value) const {
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!before_(value, Slot(parent))) break;
      Slot(hole) = std::move(Slot(parent));
      hole = parent;
    }
    Slot(hole) = std::move(value);
  }

  /// Replaces the root of a heap of `size` >= 1 records with `value` and
  /// restores the heap property ("downheap", §3.1.1), bottom-up.
  void SiftDownFromRoot(size_t size, T value) const {
    size_t hole = 0;
    size_t child = 1;
    while (child + 1 < size) {
      // Arithmetic, not a branch: which child wins is data-dependent, and
      // the select keeps the next level's loads off a mispredicted path.
      child += before_(Slot(child + 1), Slot(child)) ? 1 : 0;
      Slot(hole) = std::move(Slot(child));
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < size) {
      Slot(hole) = std::move(Slot(child));
      hole = child;
    }
    SiftUp(hole, std::move(value));
  }

  /// True when no record among the first `size` pops before its parent.
  bool IsHeap(size_t size) const {
    for (size_t i = 1; i < size; ++i) {
      if (before_(Slot(i), Slot((i - 1) / 2))) return false;
    }
    return true;
  }

 private:
  T* base_;
  Before before_;
};

}  // namespace twrs

#endif  // TWRS_HEAP_SIFT_KERNEL_H_
