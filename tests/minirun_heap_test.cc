#include "core/minirun_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "util/random.h"

namespace twrs {
namespace {

// Copies `keys` into a fresh arena block as one minirun (the caller's
// reference is dropped once the heap holds its own).
template <typename Heap>
void PushRun(MinirunArena* arena, Heap* heap, const std::vector<Key>& keys) {
  const uint32_t block = arena->Acquire(keys.size());
  Key* data = arena->data(block);
  std::copy(keys.begin(), keys.end(), data);
  heap->Push(Minirun{data, data + keys.size(), block});
  arena->Release(block);
}

// Drains the heap span by span, recording each span's keys.
template <typename Heap>
std::vector<std::vector<Key>> DrainSpans(Heap* heap) {
  std::vector<std::vector<Key>> spans;
  while (!heap->empty()) {
    const size_t n = heap->TopSpan();
    spans.emplace_back(heap->TopKeys(), heap->TopKeys() + n);
    heap->Consume(n);
  }
  return spans;
}

TEST(MinirunHeapTest, AscendingSpansStopAtTheNextBestHead) {
  MinirunArena arena;
  MinirunHeap<DrainOrder::kAscending> heap(&arena);
  PushRun(&arena, &heap, {1, 2, 3, 10, 11});
  PushRun(&arena, &heap, {4, 5, 12});
  PushRun(&arena, &heap, {5, 20});
  EXPECT_EQ(heap.records(), 10u);
  EXPECT_EQ(heap.Top(), 1);
  const std::vector<std::vector<Key>> expected = {
      {1, 2, 3}, {4, 5}, {5}, {10, 11}, {12}, {20}};
  EXPECT_EQ(DrainSpans(&heap), expected);
  EXPECT_EQ(heap.records(), 0u);
}

TEST(MinirunHeapTest, DescendingHeapDrainsLargestFirst) {
  MinirunArena arena;
  MinirunHeap<DrainOrder::kDescending> heap(&arena);
  PushRun(&arena, &heap, {9, 8, 3});
  PushRun(&arena, &heap, {7, 7, 6, 1});
  const std::vector<std::vector<Key>> expected = {{9, 8}, {7, 7, 6}, {3}, {1}};
  EXPECT_EQ(DrainSpans(&heap), expected);
}

TEST(MinirunHeapTest, SpansMergeToTheSortedInput) {
  // Many short miniruns: long probes, binary searches and ties.
  Random rng(5);
  std::vector<Key> all;
  MinirunArena arena;
  MinirunHeap<DrainOrder::kAscending> heap(&arena);
  for (int r = 0; r < 40; ++r) {
    std::vector<Key> run(1 + rng.Uniform(60));
    for (Key& k : run) k = static_cast<Key>(rng.Uniform(500));
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
    PushRun(&arena, &heap, run);
  }
  std::sort(all.begin(), all.end());
  std::vector<Key> merged;
  for (const auto& span : DrainSpans(&heap)) {
    EXPECT_FALSE(span.empty());
    merged.insert(merged.end(), span.begin(), span.end());
  }
  EXPECT_EQ(merged, all);
}

TEST(MinirunHeapTest, TrimBeforeCutsEveryLeadingStray) {
  MinirunArena arena;
  MinirunHeap<DrainOrder::kDescending> heap(&arena);
  PushRun(&arena, &heap, {50, 40, 30, 20});
  PushRun(&arena, &heap, {45, 44});  // drained entirely by the cut
  PushRun(&arena, &heap, {25, 10});
  std::vector<Key> strays;
  heap.TrimBefore(30, &strays);  // keys that drain before 30: above it
  std::sort(strays.begin(), strays.end(), std::greater<Key>());
  EXPECT_EQ(strays, std::vector<Key>({50, 45, 44, 40}));
  EXPECT_EQ(heap.records(), 4u);
  EXPECT_EQ(heap.Pop(), 30);
  EXPECT_EQ(heap.Pop(), 25);
  EXPECT_EQ(heap.Pop(), 20);
  EXPECT_EQ(heap.Pop(), 10);
  EXPECT_TRUE(heap.empty());
}

TEST(MinirunArenaTest, BlocksRecycleOnceEveryMinirunIsDrained) {
  MinirunArena arena;
  MinirunHeap<DrainOrder::kAscending> heap(&arena);
  const uint32_t block = arena.Acquire(4);
  Key* data = arena.data(block);
  for (Key k = 0; k < 4; ++k) data[k] = k;
  // Two miniruns cut from one block.
  heap.Push(Minirun{data, data + 2, block});
  heap.Push(Minirun{data + 2, data + 4, block});
  arena.Release(block);
  EXPECT_NE(arena.Acquire(4), block);  // still referenced
  heap.Consume(2);
  EXPECT_NE(arena.Acquire(4), block);  // one minirun left
  heap.Consume(2);
  EXPECT_EQ(arena.Acquire(4), block);  // recycled
}

TEST(MinirunArenaTest, CompactPacksTheLiveKeysAndKeepsTheirOrder) {
  // Partly drained miniruns in two heaps and a side list, spread over
  // blocks of 64 keys; after Compact the allocation is exactly the keys
  // still held, and every structure drains the same spans as an
  // uncompacted twin.
  Random rng(11);
  MinirunArena arena;
  MinirunArena twin_arena;
  MinirunHeap<DrainOrder::kAscending> up(&arena);
  MinirunHeap<DrainOrder::kAscending> twin_up(&twin_arena);
  MinirunHeap<DrainOrder::kDescending> down(&arena);
  MinirunHeap<DrainOrder::kDescending> twin_down(&twin_arena);
  std::vector<Minirun> side;
  std::vector<std::vector<Key>> side_keys;
  for (int b = 0; b < 20; ++b) {
    std::vector<Key> keys(64);
    for (Key& k : keys) k = static_cast<Key>(rng.Uniform(1000));
    std::sort(keys.begin(), keys.end());
    const uint32_t block = arena.Acquire(keys.size());
    Key* data = arena.data(block);
    std::copy(keys.begin(), keys.end(), data);
    // Cut: descending | side | ascending.
    std::reverse(data, data + 20);
    down.Push(Minirun{data, data + 20, block});
    arena.Retain(block);
    side.push_back(Minirun{data + 20, data + 30, block});
    side_keys.emplace_back(data + 20, data + 30);
    up.Push(Minirun{data + 30, data + 64, block});
    arena.Release(block);
    std::vector<Key> low(keys.begin(), keys.begin() + 20);
    std::reverse(low.begin(), low.end());
    PushRun(&twin_arena, &twin_down, low);
    PushRun(&twin_arena, &twin_up,
            std::vector<Key>(keys.begin() + 30, keys.end()));
  }
  while (up.records() > 300) {
    const size_t n = up.TopSpan();
    ASSERT_EQ(n, twin_up.TopSpan());
    up.Consume(n);
    twin_up.Consume(n);
  }
  for (int i = 0; i < 300; ++i) EXPECT_EQ(down.Pop(), twin_down.Pop());
  EXPECT_EQ(arena.allocated_keys(), 20u * 64);
  const uint64_t live = up.records() + down.records() + side.size() * 10;

  arena.Compact(/*block_keys=*/100, [&](auto visit) {
    up.ForEach(visit);
    down.ForEach(visit);
    for (Minirun& run : side) visit(run);
  });
  EXPECT_EQ(arena.allocated_keys(), live);
  // Old blocks are freed as their miniruns leave: the allocation grew by
  // at most one packed block of under 100 keys plus the largest minirun.
  EXPECT_LT(arena.peak_allocated_keys(), 20u * 64 + 100 + 34);
  for (size_t i = 0; i < side.size(); ++i) {
    EXPECT_EQ(std::vector<Key>(side[i].begin, side[i].end), side_keys[i]);
    arena.Release(side[i].block);
  }
  EXPECT_EQ(DrainSpans(&up), DrainSpans(&twin_up));
  EXPECT_EQ(DrainSpans(&down), DrainSpans(&twin_down));
  // Everything drained: a second compaction frees the packed block.
  arena.Compact(100, [](auto) {});
  EXPECT_EQ(arena.allocated_keys(), 0u);
}

}  // namespace
}  // namespace twrs
