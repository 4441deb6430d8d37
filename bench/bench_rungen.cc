// Micro-benchmarks of run generation throughput (records/second) for
// Load-Sort-Store, RS, batched RS, 2WRS and batched 2WRS across datasets —
// the CPU-side cost the paper discusses in §6.2 ("the logic of 2WRS is
// slightly more complex").

#include <benchmark/benchmark.h>

#include "core/batched_replacement_selection.h"
#include "core/batched_two_way_replacement_selection.h"
#include "core/load_sort_store.h"
#include "core/replacement_selection.h"
#include "core/run_sink.h"
#include "core/two_way_replacement_selection.h"
#include "workload/generators.h"

namespace twrs {
namespace {

constexpr size_t kMemory = 4096;
constexpr uint64_t kRecords = 200000;

void RunGenerator(benchmark::State& state, RunGenerator* generator,
                  Dataset dataset) {
  uint64_t runs = 0;
  for (auto _ : state) {
    WorkloadOptions workload;
    workload.num_records = kRecords;
    workload.seed = 7;
    auto source = MakeWorkload(dataset, workload);
    CountingRunSink sink;
    RunGenStats stats;
    benchmark::DoNotOptimize(
        generator->Generate(source.get(), &sink, &stats).ok());
    runs = stats.num_runs();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kRecords);
  state.counters["runs"] = static_cast<double>(runs);
}

void BM_LoadSortStore(benchmark::State& state) {
  LoadSortStoreOptions options;
  options.memory_records = kMemory;
  LoadSortStore generator(options);
  RunGenerator(state, &generator, static_cast<Dataset>(state.range(0)));
}
BENCHMARK(BM_LoadSortStore)->DenseRange(0, kNumDatasets - 1);

void BM_ReplacementSelection(benchmark::State& state) {
  ReplacementSelectionOptions options;
  options.memory_records = kMemory;
  ReplacementSelection generator(options);
  RunGenerator(state, &generator, static_cast<Dataset>(state.range(0)));
}
BENCHMARK(BM_ReplacementSelection)->DenseRange(0, kNumDatasets - 1);

void BM_BatchedReplacementSelection(benchmark::State& state) {
  BatchedReplacementSelectionOptions options;
  options.memory_records = kMemory;
  options.batch_records = kMemory / 8;
  BatchedReplacementSelection generator(options);
  RunGenerator(state, &generator, static_cast<Dataset>(state.range(0)));
}
BENCHMARK(BM_BatchedReplacementSelection)->DenseRange(0, kNumDatasets - 1);

void BM_TwoWayReplacementSelection(benchmark::State& state) {
  TwoWayReplacementSelection generator(TwoWayOptions::Recommended(kMemory));
  RunGenerator(state, &generator, static_cast<Dataset>(state.range(0)));
}
BENCHMARK(BM_TwoWayReplacementSelection)->DenseRange(0, kNumDatasets - 1);

void BM_BatchedTwoWayReplacementSelection(benchmark::State& state) {
  BatchedTwoWayReplacementSelection generator(
      TwoWayOptions::Recommended(kMemory));
  RunGenerator(state, &generator, static_cast<Dataset>(state.range(0)));
}
BENCHMARK(BM_BatchedTwoWayReplacementSelection)
    ->DenseRange(0, kNumDatasets - 1);

}  // namespace
}  // namespace twrs

BENCHMARK_MAIN();
