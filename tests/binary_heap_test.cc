#include "heap/binary_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "core/record.h"

#include "heap/heapsort.h"
#include "util/random.h"

namespace twrs {
namespace {

using MinHeap = BinaryHeap<int, std::less<int>>;
using MaxHeap = BinaryHeap<int, std::greater<int>>;

TEST(BinaryHeapTest, MinHeapPopsAscending) {
  MinHeap heap;
  for (int v : {5, 1, 4, 2, 3}) heap.Push(v);
  std::vector<int> out;
  while (!heap.empty()) out.push_back(heap.Pop());
  EXPECT_EQ(out, std::vector<int>({1, 2, 3, 4, 5}));
}

TEST(BinaryHeapTest, MaxHeapPopsDescending) {
  MaxHeap heap;
  for (int v : {5, 1, 4, 2, 3}) heap.Push(v);
  std::vector<int> out;
  while (!heap.empty()) out.push_back(heap.Pop());
  EXPECT_EQ(out, std::vector<int>({5, 4, 3, 2, 1}));
}

TEST(BinaryHeapTest, TopPeeksWithoutRemoving) {
  MinHeap heap;
  heap.Push(2);
  heap.Push(1);
  EXPECT_EQ(heap.Top(), 1);
  EXPECT_EQ(heap.size(), 2u);
}

TEST(BinaryHeapTest, DuplicatesAreKept) {
  MinHeap heap;
  for (int v : {3, 3, 3, 1, 1}) heap.Push(v);
  std::vector<int> out;
  while (!heap.empty()) out.push_back(heap.Pop());
  EXPECT_EQ(out, std::vector<int>({1, 1, 3, 3, 3}));
}

TEST(BinaryHeapTest, PaperUpheapExample) {
  // Figure 3.3: adding 91 to the max heap {93, 88, 82, 66, 20, 42, 7}.
  MaxHeap heap;
  for (int v : {93, 88, 82, 66, 20, 42, 7}) heap.Push(v);
  ASSERT_TRUE(heap.IsValidHeap());
  heap.Push(91);
  ASSERT_TRUE(heap.IsValidHeap());
  EXPECT_EQ(heap.Top(), 93);
  // Figure 3.4: popping the top yields 93, then the heap re-arranges.
  EXPECT_EQ(heap.Pop(), 93);
  ASSERT_TRUE(heap.IsValidHeap());
  EXPECT_EQ(heap.Top(), 91);
}

TEST(BinaryHeapTest, PopLastLeafRemovesOneElement) {
  MinHeap heap;
  for (int v : {4, 2, 7}) heap.Push(v);
  const int leaf = heap.PopLastLeaf();
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_TRUE(heap.IsValidHeap());
  // The remaining pops plus the leaf are the original multiset.
  std::vector<int> rest = {heap.Pop(), heap.Pop(), leaf};
  std::sort(rest.begin(), rest.end());
  EXPECT_EQ(rest, std::vector<int>({2, 4, 7}));
}

TEST(BinaryHeapTest, ClearEmptiesHeap) {
  MinHeap heap;
  heap.Push(1);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
}

TEST(BinaryHeapTest, RandomizedAgainstStdSortProperty) {
  Random rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = rng.Uniform(300);
    std::vector<int> values(n);
    for (int& v : values) v = static_cast<int>(rng.Uniform(1000));
    MinHeap heap;
    for (int v : values) {
      heap.Push(v);
      ASSERT_TRUE(heap.IsValidHeap());
    }
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end());
    std::vector<int> out;
    while (!heap.empty()) out.push_back(heap.Pop());
    EXPECT_EQ(out, expected) << "trial " << trial;
  }
}

TEST(BinaryHeapTest, InterleavedPushPopKeepsInvariant) {
  Random rng(6);
  MinHeap heap;
  for (int step = 0; step < 2000; ++step) {
    if (heap.empty() || rng.Uniform(3) != 0) {
      heap.Push(static_cast<int>(rng.Uniform(100)));
    } else {
      heap.Pop();
    }
    ASSERT_TRUE(heap.IsValidHeap());
  }
}

TEST(HeapSortTest, SortsAscendingByDefault) {
  std::vector<int> values = {9, -3, 5, 0, 5, 2};
  HeapSort(&values);
  EXPECT_EQ(values, std::vector<int>({-3, 0, 2, 5, 5, 9}));
}

TEST(HeapSortTest, CustomComparatorSortsDescending) {
  std::vector<int> values = {1, 3, 2};
  HeapSort(&values, std::greater<int>());
  EXPECT_EQ(values, std::vector<int>({3, 2, 1}));
}

TEST(HeapSortTest, EmptyAndSingleton) {
  std::vector<int> empty;
  HeapSort(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  HeapSort(&one);
  EXPECT_EQ(one, std::vector<int>({42}));
}

TEST(HeapSortTest, MatchesStdSortOnRandomInputs) {
  Random rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int> values(rng.Uniform(500));
    for (int& v : values) v = static_cast<int>(rng.Next());
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end());
    HeapSort(&values);
    EXPECT_EQ(values, expected);
  }
}

// Earlier runs first, then keys in `Order` — the RS heap order (§3.3),
// under which records that compare equal are identical.
template <typename Order>
struct RunThenKey {
  bool operator()(const TaggedRecord& a, const TaggedRecord& b) const {
    if (a.run != b.run) return a.run < b.run;
    return Order()(a.key, b.key);
  }
};

// The classic top-down, swap-based binary heap (§3.1.1): the reference the
// hole-based bottom-up SiftKernel must match slot for slot.
template <typename Before>
class ReferenceHeap {
 public:
  void Push(const TaggedRecord& record) {
    slots_.push_back(record);
    for (size_t i = slots_.size() - 1; i > 0;) {
      const size_t parent = (i - 1) / 2;
      if (!before_(slots_[i], slots_[parent])) break;
      std::swap(slots_[i], slots_[parent]);
      i = parent;
    }
  }

  TaggedRecord Pop() {
    const TaggedRecord top = slots_.front();
    slots_.front() = slots_.back();
    slots_.pop_back();
    const size_t n = slots_.size();
    for (size_t i = 0;;) {
      size_t best = i;
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      if (left < n && before_(slots_[left], slots_[best])) best = left;
      if (right < n && before_(slots_[right], slots_[best])) best = right;
      if (best == i) break;
      std::swap(slots_[i], slots_[best]);
      i = best;
    }
    return top;
  }

  TaggedRecord PopLastLeaf() {
    const TaggedRecord leaf = slots_.back();
    slots_.pop_back();
    return leaf;
  }

  const std::vector<TaggedRecord>& slots() const { return slots_; }

 private:
  std::vector<TaggedRecord> slots_;
  Before before_;
};

// Slot order of `heap`, read off a copy by popping its last leaf repeatedly.
template <typename Before>
std::vector<TaggedRecord> Layout(BinaryHeap<TaggedRecord, Before> heap) {
  std::vector<TaggedRecord> slots(heap.size());
  for (size_t i = slots.size(); i > 0; --i) slots[i - 1] = heap.PopLastLeaf();
  return slots;
}

template <typename Before>
void ExpectLayoutMatchesReference() {
  // Few distinct keys and three run tags make ties frequent: the cases
  // where a bottom-up sift could place a record differently.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    BinaryHeap<TaggedRecord, Before> heap;
    ReferenceHeap<Before> reference;
    for (int step = 0; step < 500; ++step) {
      // 0-2 push, 3 pop, 4 pop-last-leaf.
      const uint64_t op = heap.empty() ? 0 : rng.Uniform(5);
      if (op <= 2) {
        const TaggedRecord record{static_cast<Key>(rng.Uniform(6)),
                                  static_cast<uint32_t>(rng.Uniform(3))};
        heap.Push(record);
        reference.Push(record);
      } else if (op == 3) {
        ASSERT_EQ(heap.Pop(), reference.Pop())
            << "seed " << seed << " step " << step;
      } else {
        ASSERT_EQ(heap.PopLastLeaf(), reference.PopLastLeaf())
            << "seed " << seed << " step " << step;
      }
      ASSERT_TRUE(Layout(heap) == reference.slots())
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(BinaryHeapTest, MinHeapLayoutMatchesTopDownReference) {
  ExpectLayoutMatchesReference<RunThenKey<std::less<Key>>>();
}

TEST(BinaryHeapTest, MaxHeapLayoutMatchesTopDownReference) {
  ExpectLayoutMatchesReference<RunThenKey<std::greater<Key>>>();
}

}  // namespace
}  // namespace twrs
