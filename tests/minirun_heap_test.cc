#include "core/minirun_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
    const Key* keys;
    const size_t n = heap->TakeSpan(SIZE_MAX, &keys);
    spans.emplace_back(keys, keys + n);
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
  const Key* keys;
  EXPECT_NE(arena.Acquire(4), block);  // still referenced
  EXPECT_EQ(heap.TakeSpan(2, &keys), 2u);
  EXPECT_NE(arena.Acquire(4), block);  // one minirun left
  EXPECT_EQ(heap.TakeSpan(2, &keys), 2u);
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
    const Key* keys;
    const Key* twin_keys;
    const size_t n = up.TakeSpan(SIZE_MAX, &keys);
    ASSERT_EQ(n, twin_up.TakeSpan(SIZE_MAX, &twin_keys));
    ASSERT_TRUE(std::equal(keys, keys + n, twin_keys));
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

// A plain model of one MinirunHeap's miniruns, each known by where its
// next key lives in the arena.
struct ModelRun {
  std::vector<Key> keys;  // in drain order
  size_t next = 0;
  const Key* at = nullptr;

  size_t left() const { return keys.size() - next; }
};

// Differential test of TakeSpan against the model: each span must start
// at the head of a minirun whose head drains first, drain no later than
// every other head, and stop only at `max`, at the minirun's end, or at a
// key that does not drain before the best other head (an equal one may
// win on its slot). Random pushes between spans, TrimBefore cuts and
// arena compactions (ForEach) are mixed in; keys are drawn from a small
// range in half of the trials, so heads tie often.
template <DrainOrder kOrder>
void CheckTakeSpanAgainstModel(uint64_t seed) {
  using Heap = MinirunHeap<kOrder>;
  Random rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const uint64_t range = trial % 2 == 0 ? 8 : 1000000;
    MinirunArena arena;
    Heap heap(&arena);
    std::vector<ModelRun> model;
    uint64_t records = 0;
    const auto push = [&]() {
      ModelRun run;
      run.keys.resize(1 + rng.Uniform(40));
      for (Key& k : run.keys) k = static_cast<Key>(rng.Uniform(range));
      std::sort(run.keys.begin(), run.keys.end(), Heap::Before);
      const uint32_t block = arena.Acquire(run.keys.size());
      Key* data = arena.data(block);
      std::copy(run.keys.begin(), run.keys.end(), data);
      heap.Push(Minirun{data, data + run.keys.size(), block});
      arena.Release(block);
      run.at = data;
      records += run.keys.size();
      model.push_back(std::move(run));
    };
    for (int i = 0; i < 1 + static_cast<int>(rng.Uniform(20)); ++i) push();
    for (int op = 0; op < 300 && records > 0; ++op) {
      const uint64_t choice = rng.Uniform(20);
      if (choice == 0) {
        push();
      } else if (choice == 1) {
        // TrimBefore at a key drawn from the range.
        const Key bound = static_cast<Key>(rng.Uniform(range));
        std::vector<Key> strays;
        heap.TrimBefore(bound, &strays);
        std::vector<Key> expected;
        for (ModelRun& run : model) {
          while (run.next < run.keys.size() &&
                 Heap::Before(run.keys[run.next], bound)) {
            expected.push_back(run.keys[run.next++]);
            ++run.at;
          }
        }
        records -= expected.size();
        std::sort(strays.begin(), strays.end());
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(strays, expected);
      } else if (choice == 2) {
        // Compaction moves every live minirun; find each again by its keys.
        arena.Compact(/*block_keys=*/32,
                      [&](auto visit) { heap.ForEach(visit); });
        std::vector<bool> matched(model.size(), false);
        size_t live = 0;
        heap.ForEach([&](const Minirun& run) {
          ++live;
          for (size_t m = 0; m < model.size(); ++m) {
            const ModelRun& mr = model[m];
            if (!matched[m] && mr.left() == run.size() &&
                std::equal(run.begin, run.end, mr.keys.begin() + mr.next)) {
              matched[m] = true;
              model[m].at = run.begin;
              return;
            }
          }
          ADD_FAILURE() << "a compacted minirun matches no model minirun";
        });
        size_t model_live = 0;
        for (const ModelRun& run : model) model_live += run.left() > 0;
        ASSERT_EQ(live, model_live);
      } else {
        const size_t max = rng.OneIn2() ? SIZE_MAX : 1 + rng.Uniform(6);
        const Key* keys;
        const size_t n = heap.TakeSpan(max, &keys);
        ASSERT_GE(n, 1u);
        ASSERT_LE(n, max);
        size_t winner = model.size();
        for (size_t m = 0; m < model.size(); ++m) {
          if (model[m].left() > 0 && model[m].at == keys) winner = m;
        }
        ASSERT_LT(winner, model.size()) << "the span is no minirun's head";
        ModelRun& run = model[winner];
        ASSERT_LE(n, run.left());
        ASSERT_TRUE(std::equal(keys, keys + n, run.keys.begin() + run.next));
        bool others = false;
        Key best_other = 0;
        for (size_t m = 0; m < model.size(); ++m) {
          if (m == winner || model[m].left() == 0) continue;
          const Key head = model[m].keys[model[m].next];
          if (!others || Heap::Before(head, best_other)) best_other = head;
          others = true;
        }
        if (others) {
          for (size_t i = 0; i < n; ++i) {
            ASSERT_FALSE(Heap::Before(best_other, keys[i])) << "key " << i;
          }
          if (n < std::min(max, run.left())) {
            ASSERT_FALSE(Heap::Before(run.keys[run.next + n], best_other))
                << "the span stopped early";
          }
        } else {
          ASSERT_EQ(n, std::min(max, run.left()));
        }
        run.next += n;
        run.at += n;
        records -= n;
      }
      ASSERT_EQ(heap.records(), records);
      ASSERT_EQ(heap.empty(), records == 0);
    }
    while (!heap.empty()) {
      const Key* keys;
      records -= heap.TakeSpan(SIZE_MAX, &keys);
    }
    EXPECT_EQ(records, 0u);
    // Every block was released exactly once.
    arena.Compact(32, [](auto) {});
    EXPECT_EQ(arena.allocated_keys(), 0u);
  }
}

TEST(MinirunHeapTest, TakeSpanMatchesTheModelAscending) {
  CheckTakeSpanAgainstModel<DrainOrder::kAscending>(71);
}

TEST(MinirunHeapTest, TakeSpanMatchesTheModelDescending) {
  CheckTakeSpanAgainstModel<DrainOrder::kDescending>(73);
}

}  // namespace
}  // namespace twrs
