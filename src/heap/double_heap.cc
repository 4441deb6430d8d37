#include "heap/double_heap.h"

#include <cassert>
#include <type_traits>

#include "heap/sift_kernel.h"

namespace twrs {

namespace {

// Earlier runs pop first on both sides (§3.3); within a run the BottomHeap
// is a max-heap and the TopHeap a min-heap.
struct BottomBefore {
  bool operator()(const TaggedRecord& a, const TaggedRecord& b) const {
    if (a.run != b.run) return a.run < b.run;
    return a.key > b.key;
  }
};

struct TopBefore {
  bool operator()(const TaggedRecord& a, const TaggedRecord& b) const {
    if (a.run != b.run) return a.run < b.run;
    return a.key < b.key;
  }
};

// The one side dispatch of every sifting operation: `fn` runs on a kernel
// specialised for the side's order and index direction, so no sift loop
// branches on the side.
template <typename Slots, typename Fn>
decltype(auto) WithKernel(HeapSide side, Slots* slots, Fn&& fn) {
  using T = std::remove_pointer_t<decltype(slots->data())>;
  if (side == HeapSide::kBottom) {
    return fn(SiftKernel<T, BottomBefore>(slots->data()));
  }
  return fn(SiftKernel<T, TopBefore, HeapDirection::kBackward>(
      slots->data() + slots->size()));
}

}  // namespace

const char* HeapSideName(HeapSide side) {
  return side == HeapSide::kBottom ? "Bottom" : "Top";
}

DoubleHeap::DoubleHeap(size_t capacity) : slots_(capacity) {}

bool DoubleHeap::Push(HeapSide side, const TaggedRecord& record) {
  if (Full()) return false;
  size_t& n = SizeOf(side);
  WithKernel(side, &slots_, [&](auto heap) { heap.SiftUp(n, record); });
  ++n;
  return true;
}

const TaggedRecord& DoubleHeap::Top(HeapSide side) const {
  assert(!Empty(side));
  return slots_[Slot(side, 0)];
}

TaggedRecord DoubleHeap::Pop(HeapSide side) {
  assert(!Empty(side));
  size_t& n = SizeOf(side);
  --n;
  return WithKernel(side, &slots_, [&](auto heap) {
    const TaggedRecord top = heap.Slot(0);
    if (n > 0) heap.SiftDownFromRoot(n, heap.Slot(n));
    return top;
  });
}

TaggedRecord DoubleHeap::ReplaceTop(HeapSide side, const TaggedRecord& record) {
  assert(!Empty(side));
  const size_t n = SideSize(side);
  return WithKernel(side, &slots_, [&](auto heap) {
    const TaggedRecord evicted = heap.Slot(0);
    heap.SiftDownFromRoot(n, record);
    return evicted;
  });
}

TaggedRecord DoubleHeap::PopLastLeaf(HeapSide side) {
  assert(!Empty(side));
  size_t& n = SizeOf(side);
  --n;
  return slots_[Slot(side, n)];
}

bool DoubleHeap::TopIsRun(HeapSide side, uint32_t run) const {
  return !Empty(side) && Top(side).run == run;
}

void DoubleHeap::AppendContents(std::vector<TaggedRecord>* out) const {
  out->reserve(out->size() + size());
  for (size_t i = 0; i < bottom_size_; ++i) {
    out->push_back(slots_[Slot(HeapSide::kBottom, i)]);
  }
  for (size_t i = 0; i < top_size_; ++i) {
    out->push_back(slots_[Slot(HeapSide::kTop, i)]);
  }
}

bool DoubleHeap::IsValid() const {
  for (HeapSide side : {HeapSide::kBottom, HeapSide::kTop}) {
    const size_t n = SideSize(side);
    const bool valid =
        WithKernel(side, &slots_, [n](auto heap) { return heap.IsHeap(n); });
    if (!valid) return false;
  }
  return true;
}

}  // namespace twrs
