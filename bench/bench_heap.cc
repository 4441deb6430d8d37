// Micro-benchmarks of the data-structure substrate: binary heap, the
// single-array DoubleHeap, the loser tree, the median tracker, and the
// k-way merge layer built on the loser tree.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/input_buffer.h"
#include "heap/binary_heap.h"
#include "heap/double_heap.h"
#include "heap/heapsort.h"
#include "heap/loser_tree.h"
#include "io/mem_env.h"
#include "merge/kway_merge.h"
#include "util/random.h"

namespace twrs {
namespace {

void BM_BinaryHeapPushPop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(1);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = static_cast<Key>(rng.Next());
  for (auto _ : state) {
    BinaryHeap<Key, std::less<Key>> heap;
    heap.Reserve(n);
    for (Key k : keys) heap.Push(k);
    Key sink = 0;
    while (!heap.empty()) sink ^= heap.Pop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_BinaryHeapPushPop)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_HeapSortVsStdSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool use_std = state.range(1) != 0;
  Random rng(2);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = static_cast<Key>(rng.Next());
  for (auto _ : state) {
    std::vector<Key> copy = keys;
    if (use_std) {
      std::sort(copy.begin(), copy.end());
    } else {
      HeapSort(&copy);
    }
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(use_std ? "std::sort" : "heapsort");
}
BENCHMARK(BM_HeapSortVsStdSort)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1});

void BM_DoubleHeapReplacement(benchmark::State& state) {
  // The inner loop of 2WRS: pop one side, push a replacement. Random keys
  // land anywhere in their heap; monotone keys lie beyond every key on
  // their side (below the BottomHeap, above the TopHeap), the shape of
  // mixed input, where each push stops at once and the record a pop moves
  // from the last leaf sinks back to the bottom.
  const size_t capacity = static_cast<size_t>(state.range(0));
  const bool monotone = state.range(1) != 0;
  Random rng(3);
  Key low = 0;
  Key high = 0;
  auto next_key = [&](HeapSide side) {
    if (!monotone) return static_cast<Key>(rng.Uniform(1 << 30));
    return side == HeapSide::kBottom ? --low : ++high;
  };
  DoubleHeap heap(capacity);
  while (!heap.Full()) {
    const HeapSide side = rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
    heap.Push(side, TaggedRecord{next_key(side), 0});
  }
  for (auto _ : state) {
    const HeapSide side = heap.Empty(HeapSide::kBottom) ? HeapSide::kTop
                          : heap.Empty(HeapSide::kTop)
                              ? HeapSide::kBottom
                              : (rng.OneIn2() ? HeapSide::kBottom
                                              : HeapSide::kTop);
    TaggedRecord record = heap.Pop(side);
    benchmark::DoNotOptimize(record);
    record.key = next_key(side);
    heap.Push(side, record);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(monotone ? "monotone" : "random");
}
BENCHMARK(BM_DoubleHeapReplacement)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 17}, {0, 1}});

// Ablation (DESIGN.md §2.2): the paper's single-array DoubleHeap versus the
// naive layout of two independently allocated heaps.
void BM_TwoVectorDoubleHeapReplacement(benchmark::State& state) {
  struct TaggedBefore {
    bool top;
    bool operator()(const TaggedRecord& a, const TaggedRecord& b) const {
      if (a.run != b.run) return a.run < b.run;
      return top ? a.key < b.key : a.key > b.key;
    }
  };
  const size_t capacity = static_cast<size_t>(state.range(0));
  Random rng(3);
  BinaryHeap<TaggedRecord, TaggedBefore> bottom{TaggedBefore{false}};
  BinaryHeap<TaggedRecord, TaggedBefore> top{TaggedBefore{true}};
  while (bottom.size() + top.size() < capacity) {
    auto& side = rng.OneIn2() ? bottom : top;
    side.Push(TaggedRecord{static_cast<Key>(rng.Uniform(1 << 30)), 0});
  }
  for (auto _ : state) {
    auto& side = bottom.empty() ? top
                 : top.empty()  ? bottom
                                : (rng.OneIn2() ? bottom : top);
    TaggedRecord record = side.Pop();
    benchmark::DoNotOptimize(record);
    record.key = static_cast<Key>(rng.Uniform(1 << 30));
    side.Push(record);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoVectorDoubleHeapReplacement)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

void BM_LoserTreeMerge(benchmark::State& state) {
  const size_t ways = static_cast<size_t>(state.range(0));
  const size_t per_way = 1 << 14;
  Random rng(4);
  std::vector<std::vector<Key>> inputs(ways);
  for (auto& way : inputs) {
    way.resize(per_way);
    for (Key& k : way) k = static_cast<Key>(rng.Uniform(1 << 30));
    std::sort(way.begin(), way.end());
  }
  for (auto _ : state) {
    LoserTree tree(ways);
    std::vector<size_t> pos(ways, 0);
    for (size_t w = 0; w < ways; ++w) tree.SetInitial(w, inputs[w][0]);
    tree.Build();
    Key sink = 0;
    while (!tree.Exhausted()) {
      const size_t w = tree.WinnerIndex();
      sink ^= tree.WinnerKey();
      if (++pos[w] < inputs[w].size()) {
        tree.ReplaceWinner(inputs[w][pos[w]]);
      } else {
        tree.RetireWinner();
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * ways *
                          per_way);
}
BENCHMARK(BM_LoserTreeMerge)->Arg(2)->Arg(10)->Arg(64);

// The whole merge layer, where BM_LoserTreeMerge times the bare tree:
// KWayMergeToFile over `ways` forward runs in a MemEnv, 1 << 18 records
// in all, so cursor refills, output blocks, encoding and span copies are
// counted too. Pattern 0 fills every way with random keys, so ways
// interleave record by record; pattern 1 gives each way its own key
// range, so the merge moves spans. With one way both are a block copy.
// Set MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ to 1073741824
// when comparing builds: otherwise glibc maps the 2 MB output buffer
// afresh on some iterations, and its page faults (about 1.4 ms) make the
// rows bimodal.
void BM_KWayMergeToFile(benchmark::State& state) {
  const size_t ways = static_cast<size_t>(state.range(0));
  const bool disjoint = state.range(1) == 1;
  const size_t per_way = (size_t{1} << 18) / ways;
  Random rng(6);
  MemEnv env;
  std::vector<RunInfo> runs;
  for (size_t w = 0; w < ways; ++w) {
    std::vector<Key> keys(per_way);
    for (size_t i = 0; i < per_way; ++i) {
      keys[i] = disjoint ? static_cast<Key>(w * per_way + i)
                         : static_cast<Key>(rng.Uniform(1 << 30));
    }
    std::sort(keys.begin(), keys.end());
    RunSegment seg;
    seg.path = "run" + std::to_string(w);
    seg.count = per_way;
    if (!WriteAllRecords(&env, seg.path, keys).ok()) {
      state.SkipWithError("writing the input runs failed");
      return;
    }
    RunInfo run;
    run.length = per_way;
    run.min_key = keys.front();
    run.max_key = keys.back();
    run.segments.push_back(std::move(seg));
    runs.push_back(std::move(run));
  }
  MergeCounters counters;
  MergeIoOptions io;
  io.counters = &counters;
  for (auto _ : state) {
    if (!KWayMergeToFile(&env, runs, io, "out", nullptr).ok()) {
      state.SkipWithError("merge failed");
      return;
    }
  }
  state.SetLabel(disjoint ? "disjoint" : "random");
  // The share of records that moved in whole-span copies.
  state.counters["span_frac"] =
      static_cast<double>(counters.span_records.load()) /
      static_cast<double>(state.iterations() * ways * per_way);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * ways *
                          per_way);
}
BENCHMARK(BM_KWayMergeToFile)
    ->ArgNames({"ways", "disjoint"})
    ->ArgsProduct({{1, 2, 10}, {0, 1}});

void BM_MedianTracker(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  Random rng(5);
  std::vector<Key> ring(window);
  for (auto _ : state) {
    state.PauseTiming();
    MedianTracker tracker;
    for (size_t i = 0; i < window; ++i) {
      ring[i] = static_cast<Key>(rng.Uniform(1 << 30));
      tracker.Insert(ring[i]);
    }
    state.ResumeTiming();
    for (size_t i = 0; i < 10000; ++i) {
      const size_t slot = i % window;
      tracker.Erase(ring[slot]);
      ring[slot] = static_cast<Key>(rng.Uniform(1 << 30));
      tracker.Insert(ring[slot]);
      benchmark::DoNotOptimize(tracker.Median());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_MedianTracker)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace twrs

BENCHMARK_MAIN();
