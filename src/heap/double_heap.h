#ifndef TWRS_HEAP_DOUBLE_HEAP_H_
#define TWRS_HEAP_DOUBLE_HEAP_H_

#include <cstddef>
#include <vector>

#include "core/record.h"
#include "core/two_way_options.h"

namespace twrs {

/// The two heaps of 2WRS stored in one contiguous array (§4.1, Figs 4.3–4.5).
///
/// The BottomHeap (a max-heap on keys) starts at slot 0 and grows upward;
/// the TopHeap (a min-heap) starts at the last slot and grows downward, so
/// either heap can grow at the expense of the other without any dynamic
/// allocation. Records tagged with a later run sort below all records of an
/// earlier run on both sides, which is how run boundaries are detected
/// (§3.3): when a side's top record belongs to a future run, so does
/// everything beneath it. Each side is a SiftKernel view of the array:
/// Bottom forward from slot 0, Top backward from the last slot.
class DoubleHeap {
 public:
  /// Creates a double heap with room for `capacity` records in total.
  explicit DoubleHeap(size_t capacity);

  /// Total slots available.
  size_t capacity() const { return slots_.size(); }

  /// Records currently stored across both heaps.
  size_t size() const { return bottom_size_ + top_size_; }

  size_t SideSize(HeapSide side) const {
    return side == HeapSide::kBottom ? bottom_size_ : top_size_;
  }

  bool Full() const { return size() == capacity(); }
  bool Empty(HeapSide side) const { return SideSize(side) == 0; }

  /// Adds a record to the given heap. Returns false (and stores nothing)
  /// when the shared array is full.
  bool Push(HeapSide side, const TaggedRecord& record);

  /// Root of the given heap: the current-run extreme (max for Bottom, min
  /// for Top), with future-run records ranked after every current-run
  /// record. Requires the side to be non-empty.
  const TaggedRecord& Top(HeapSide side) const;

  /// Removes and returns the root of the given heap.
  TaggedRecord Pop(HeapSide side);

  /// Replaces the root of the given heap with `record` and restores the
  /// heap property, returning the evicted root. O(log n) with a single
  /// sift-down — the cap-aware push used by bounded top-K selection: once
  /// a selector's heap holds K records, every better candidate evicts the
  /// current boundary element (the root) without changing the heap size.
  /// Requires the side to be non-empty.
  TaggedRecord ReplaceTop(HeapSide side, const TaggedRecord& record);

  /// Removes an arbitrary leaf (the last slot) of the given heap in O(1).
  /// Used by the Balancing heuristic to migrate records between heaps.
  TaggedRecord PopLastLeaf(HeapSide side);

  /// True when the root of `side` is a record of run `run` (i.e. the side
  /// can emit for the current run).
  bool TopIsRun(HeapSide side, uint32_t run) const;

  /// Appends every stored record (both sides, unspecified order) to `*out`.
  /// Used by 2WRS to snapshot the heap contents when choosing the victim
  /// buffer's initial valid range. O(n).
  void AppendContents(std::vector<TaggedRecord>* out) const;

  /// Verifies the heap property on both sides; O(n). Test helper.
  bool IsValid() const;

 private:
  // Maps a heap-logical index to a slot in the shared array.
  size_t Slot(HeapSide side, size_t logical) const {
    return side == HeapSide::kBottom ? logical
                                     : slots_.size() - 1 - logical;
  }

  size_t& SizeOf(HeapSide side) {
    return side == HeapSide::kBottom ? bottom_size_ : top_size_;
  }

  std::vector<TaggedRecord> slots_;
  size_t bottom_size_ = 0;
  size_t top_size_ = 0;
};

}  // namespace twrs

#endif  // TWRS_HEAP_DOUBLE_HEAP_H_
