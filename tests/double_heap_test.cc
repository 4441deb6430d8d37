#include "heap/double_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/random.h"

namespace twrs {
namespace {

TaggedRecord R(Key key, uint32_t run = 0) { return TaggedRecord{key, run}; }

TEST(DoubleHeapTest, StartsEmpty) {
  DoubleHeap heap(10);
  EXPECT_EQ(heap.capacity(), 10u);
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_TRUE(heap.Empty(HeapSide::kBottom));
  EXPECT_TRUE(heap.Empty(HeapSide::kTop));
}

TEST(DoubleHeapTest, BottomPopsDescending) {
  DoubleHeap heap(10);
  for (Key k : {3, 1, 4, 1, 5}) {
    ASSERT_TRUE(heap.Push(HeapSide::kBottom, R(k)));
  }
  std::vector<Key> out;
  while (!heap.Empty(HeapSide::kBottom)) {
    out.push_back(heap.Pop(HeapSide::kBottom).key);
  }
  EXPECT_EQ(out, std::vector<Key>({5, 4, 3, 1, 1}));
}

TEST(DoubleHeapTest, TopPopsAscending) {
  DoubleHeap heap(10);
  for (Key k : {3, 1, 4, 1, 5}) {
    ASSERT_TRUE(heap.Push(HeapSide::kTop, R(k)));
  }
  std::vector<Key> out;
  while (!heap.Empty(HeapSide::kTop)) {
    out.push_back(heap.Pop(HeapSide::kTop).key);
  }
  EXPECT_EQ(out, std::vector<Key>({1, 1, 3, 4, 5}));
}

TEST(DoubleHeapTest, SidesShareCapacity) {
  DoubleHeap heap(4);
  EXPECT_TRUE(heap.Push(HeapSide::kBottom, R(1)));
  EXPECT_TRUE(heap.Push(HeapSide::kBottom, R(2)));
  EXPECT_TRUE(heap.Push(HeapSide::kTop, R(3)));
  EXPECT_TRUE(heap.Push(HeapSide::kTop, R(4)));
  EXPECT_TRUE(heap.Full());
  EXPECT_FALSE(heap.Push(HeapSide::kBottom, R(5)));
  EXPECT_FALSE(heap.Push(HeapSide::kTop, R(5)));
  // Popping one side frees a slot the other side can claim (Figs 4.4/4.5).
  heap.Pop(HeapSide::kBottom);
  EXPECT_TRUE(heap.Push(HeapSide::kTop, R(6)));
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 3u);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 1u);
}

TEST(DoubleHeapTest, OneSideCanFillTheWholeArray) {
  // §4.1: if the TopHeap grows to occupy the whole memory, the algorithm is
  // equivalent to RS.
  DoubleHeap heap(8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(heap.Push(HeapSide::kTop, R(i)));
  }
  EXPECT_TRUE(heap.Full());
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 8u);
  std::vector<Key> out;
  while (!heap.Empty(HeapSide::kTop)) out.push_back(heap.Pop(HeapSide::kTop).key);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(DoubleHeapTest, PaperFigure42Example) {
  // Figure 4.2/4.3: BottomHeap {33,28,32,16,20,22,4} (max), TopHeap
  // {52,54,72,75,64,81,77} (min) stored in one array.
  DoubleHeap heap(14);
  for (Key k : {33, 28, 32, 16, 20, 22, 4}) heap.Push(HeapSide::kBottom, R(k));
  for (Key k : {52, 54, 72, 75, 64, 81, 77}) heap.Push(HeapSide::kTop, R(k));
  ASSERT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.Top(HeapSide::kBottom).key, 33);
  EXPECT_EQ(heap.Top(HeapSide::kTop).key, 52);
  // Figure 4.4: removing the BottomHeap top leaves room...
  EXPECT_EQ(heap.Pop(HeapSide::kBottom).key, 33);
  // ...Figure 4.5: which the TopHeap can use (inserting 53).
  EXPECT_TRUE(heap.Push(HeapSide::kTop, R(53)));
  ASSERT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.Top(HeapSide::kTop).key, 52);
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 8u);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 6u);
}

TEST(DoubleHeapTest, LaterRunRecordsSinkBelowCurrentRun) {
  DoubleHeap heap(8);
  heap.Push(HeapSide::kTop, R(100, 0));
  heap.Push(HeapSide::kTop, R(1, 1));  // next run: must rank after key 100
  EXPECT_EQ(heap.Top(HeapSide::kTop).key, 100);
  EXPECT_TRUE(heap.TopIsRun(HeapSide::kTop, 0));
  heap.Pop(HeapSide::kTop);
  EXPECT_FALSE(heap.TopIsRun(HeapSide::kTop, 0));
  EXPECT_TRUE(heap.TopIsRun(HeapSide::kTop, 1));

  heap.Push(HeapSide::kBottom, R(1, 0));
  heap.Push(HeapSide::kBottom, R(100, 1));  // next run sinks on Bottom too
  EXPECT_EQ(heap.Top(HeapSide::kBottom).key, 1);
  EXPECT_TRUE(heap.TopIsRun(HeapSide::kBottom, 0));
}

TEST(DoubleHeapTest, PopLastLeafShrinksSide) {
  DoubleHeap heap(6);
  for (Key k : {1, 2, 3}) heap.Push(HeapSide::kBottom, R(k));
  const TaggedRecord leaf = heap.PopLastLeaf(HeapSide::kBottom);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 2u);
  EXPECT_TRUE(heap.IsValid());
  // Leaf is one of the stored records.
  EXPECT_TRUE(leaf.key >= 1 && leaf.key <= 3);
}

TEST(DoubleHeapTest, ReplaceTopEvictsBottomRoot) {
  DoubleHeap heap(8);
  for (Key k : {3, 1, 4, 1, 5}) heap.Push(HeapSide::kBottom, R(k));
  // Bottom is a max-heap: the root is 5; replacing it with 2 returns it.
  const TaggedRecord evicted = heap.ReplaceTop(HeapSide::kBottom, R(2));
  EXPECT_EQ(evicted.key, 5);
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.Top(HeapSide::kBottom).key, 4);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 5u);  // size unchanged
  std::vector<Key> out;
  while (!heap.Empty(HeapSide::kBottom)) {
    out.push_back(heap.Pop(HeapSide::kBottom).key);
  }
  EXPECT_EQ(out, std::vector<Key>({4, 3, 2, 1, 1}));
}

TEST(DoubleHeapTest, ReplaceTopEvictsTopRoot) {
  DoubleHeap heap(8);
  for (Key k : {30, 10, 40, 20}) heap.Push(HeapSide::kTop, R(k));
  // Top is a min-heap: the root is 10; the replacement may itself become
  // the new root.
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kTop, R(5)).key, 10);
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.Top(HeapSide::kTop).key, 5);
  // And one that sinks past the root.
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kTop, R(35)).key, 5);
  EXPECT_TRUE(heap.IsValid());
  std::vector<Key> out;
  while (!heap.Empty(HeapSide::kTop)) {
    out.push_back(heap.Pop(HeapSide::kTop).key);
  }
  EXPECT_EQ(out, std::vector<Key>({20, 30, 35, 40}));
}

TEST(DoubleHeapTest, ReplaceTopLeavesOtherSideIntact) {
  DoubleHeap heap(8);
  for (Key k : {1, 2, 3}) heap.Push(HeapSide::kBottom, R(k));
  for (Key k : {10, 20, 30}) heap.Push(HeapSide::kTop, R(k));
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kBottom, R(0)).key, 3);
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kTop, R(40)).key, 10);
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 3u);
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 3u);
  EXPECT_EQ(heap.Top(HeapSide::kBottom).key, 2);
  EXPECT_EQ(heap.Top(HeapSide::kTop).key, 20);
}

TEST(DoubleHeapTest, RandomizedReplaceTopKeepsInvariants) {
  Random rng(79);
  DoubleHeap heap(32);
  while (!heap.Full()) {
    const HeapSide side = rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
    heap.Push(side, R(static_cast<Key>(rng.Uniform(1000))));
  }
  for (int step = 0; step < 2000; ++step) {
    const HeapSide side = rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
    if (heap.Empty(side)) continue;
    const Key root = heap.Top(side).key;
    const TaggedRecord evicted =
        heap.ReplaceTop(side, R(static_cast<Key>(rng.Uniform(1000))));
    ASSERT_EQ(evicted.key, root) << "step " << step;
    ASSERT_TRUE(heap.IsValid()) << "step " << step;
  }
  EXPECT_EQ(heap.size(), heap.capacity());  // replace never changes size
}

TEST(DoubleHeapTest, HeapSideNames) {
  EXPECT_STREQ(HeapSideName(HeapSide::kBottom), "Bottom");
  EXPECT_STREQ(HeapSideName(HeapSide::kTop), "Top");
}

TEST(DoubleHeapTest, RandomizedMixedOperationsKeepInvariants) {
  Random rng(77);
  DoubleHeap heap(64);
  std::vector<Key> bottom_popped;
  std::vector<Key> top_popped;
  for (int step = 0; step < 5000; ++step) {
    const HeapSide side =
        rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
    if (!heap.Full() && (heap.Empty(side) || rng.Uniform(3) != 0)) {
      heap.Push(side, R(static_cast<Key>(rng.Uniform(10000))));
    } else if (!heap.Empty(side)) {
      const Key k = heap.Pop(side).key;
      (side == HeapSide::kBottom ? bottom_popped : top_popped).push_back(k);
    }
    ASSERT_TRUE(heap.IsValid()) << "step " << step;
    ASSERT_LE(heap.size(), heap.capacity());
  }
  // Within one uninterrupted drain the order is monotone; across pushes it
  // is not, so only validate the heap property (done above) plus totals.
  EXPECT_GT(bottom_popped.size() + top_popped.size(), 1000u);
}

TEST(DoubleHeapTest, DrainAfterMixedInsertsIsSorted) {
  Random rng(78);
  for (int trial = 0; trial < 20; ++trial) {
    DoubleHeap heap(128);
    while (!heap.Full()) {
      const HeapSide side =
          rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
      heap.Push(side, R(static_cast<Key>(rng.Uniform(100000))));
    }
    std::vector<Key> bottom;
    while (!heap.Empty(HeapSide::kBottom)) {
      bottom.push_back(heap.Pop(HeapSide::kBottom).key);
    }
    std::vector<Key> top;
    while (!heap.Empty(HeapSide::kTop)) {
      top.push_back(heap.Pop(HeapSide::kTop).key);
    }
    EXPECT_TRUE(std::is_sorted(bottom.rbegin(), bottom.rend()));
    EXPECT_TRUE(std::is_sorted(top.begin(), top.end()));
  }
}

// The classic top-down, swap-based double heap (§4.1): the reference the
// hole-based bottom-up SiftKernel must match slot for slot.
class ReferenceDoubleHeap {
 public:
  explicit ReferenceDoubleHeap(size_t capacity) : slots_(capacity) {}

  size_t SideSize(HeapSide side) const {
    return side == HeapSide::kBottom ? bottom_ : top_;
  }

  void Push(HeapSide side, const TaggedRecord& record) {
    size_t& n = Size(side);
    slots_[Slot(side, n)] = record;
    for (size_t i = n++; i > 0;) {
      const size_t parent = (i - 1) / 2;
      if (!Before(side, slots_[Slot(side, i)], slots_[Slot(side, parent)])) {
        break;
      }
      std::swap(slots_[Slot(side, i)], slots_[Slot(side, parent)]);
      i = parent;
    }
  }

  TaggedRecord Pop(HeapSide side) {
    size_t& n = Size(side);
    const TaggedRecord top = slots_[Slot(side, 0)];
    slots_[Slot(side, 0)] = slots_[Slot(side, --n)];
    SiftDown(side);
    return top;
  }

  TaggedRecord ReplaceTop(HeapSide side, const TaggedRecord& record) {
    const TaggedRecord top = slots_[Slot(side, 0)];
    slots_[Slot(side, 0)] = record;
    SiftDown(side);
    return top;
  }

  TaggedRecord PopLastLeaf(HeapSide side) {
    return slots_[Slot(side, --Size(side))];
  }

  std::vector<TaggedRecord> Contents() const {
    std::vector<TaggedRecord> out;
    for (size_t i = 0; i < bottom_; ++i) {
      out.push_back(slots_[Slot(HeapSide::kBottom, i)]);
    }
    for (size_t i = 0; i < top_; ++i) {
      out.push_back(slots_[Slot(HeapSide::kTop, i)]);
    }
    return out;
  }

 private:
  static bool Before(HeapSide side, const TaggedRecord& a,
                     const TaggedRecord& b) {
    if (a.run != b.run) return a.run < b.run;
    return side == HeapSide::kBottom ? a.key > b.key : a.key < b.key;
  }

  size_t Slot(HeapSide side, size_t i) const {
    return side == HeapSide::kBottom ? i : slots_.size() - 1 - i;
  }

  size_t& Size(HeapSide side) {
    return side == HeapSide::kBottom ? bottom_ : top_;
  }

  void SiftDown(HeapSide side) {
    const size_t n = SideSize(side);
    for (size_t i = 0;;) {
      size_t best = i;
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      if (left < n &&
          Before(side, slots_[Slot(side, left)], slots_[Slot(side, best)])) {
        best = left;
      }
      if (right < n &&
          Before(side, slots_[Slot(side, right)], slots_[Slot(side, best)])) {
        best = right;
      }
      if (best == i) return;
      std::swap(slots_[Slot(side, i)], slots_[Slot(side, best)]);
      i = best;
    }
  }

  std::vector<TaggedRecord> slots_;
  size_t bottom_ = 0;
  size_t top_ = 0;
};

TEST(DoubleHeapTest, LayoutMatchesTopDownReference) {
  // Few distinct keys and three run tags, so most comparisons tie on the
  // run and many on the key too: the cases where a bottom-up sift could
  // place a record differently from the top-down one.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    const size_t capacity = 1 + rng.Uniform(64);
    DoubleHeap heap(capacity);
    ReferenceDoubleHeap reference(capacity);
    for (int step = 0; step < 1000; ++step) {
      const HeapSide side = rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
      const TaggedRecord record{static_cast<Key>(rng.Uniform(6)),
                                static_cast<uint32_t>(rng.Uniform(3))};
      // 0-2 push, 3 pop, 4 replace-top, 5 pop-last-leaf: pushes outpace
      // removals, so the heap spends most steps near capacity.
      const uint64_t op = heap.Empty(side) ? 0 : rng.Uniform(6);
      if (op <= 2) {
        if (heap.Full()) continue;
        ASSERT_TRUE(heap.Push(side, record));
        reference.Push(side, record);
      } else if (op == 3) {
        ASSERT_EQ(heap.Pop(side), reference.Pop(side))
            << "seed " << seed << " step " << step;
      } else if (op == 4) {
        ASSERT_EQ(heap.ReplaceTop(side, record),
                  reference.ReplaceTop(side, record))
            << "seed " << seed << " step " << step;
      } else {
        ASSERT_EQ(heap.PopLastLeaf(side), reference.PopLastLeaf(side))
            << "seed " << seed << " step " << step;
      }
      std::vector<TaggedRecord> contents;
      heap.AppendContents(&contents);
      ASSERT_EQ(heap.SideSize(HeapSide::kBottom),
                reference.SideSize(HeapSide::kBottom))
          << "seed " << seed << " step " << step;
      ASSERT_TRUE(contents == reference.Contents())
          << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace twrs
