// Micro-benchmarks of run generation throughput (records/second) for
// Load-Sort-Store, RS, batched RS, 2WRS and batched 2WRS across datasets —
// the CPU-side cost the paper discusses in §6.2 ("the logic of 2WRS is
// slightly more complex"). The *File variants write the runs through a
// FileRunSink over a MemEnv, so they also count the sink layer (encoding,
// per-call overhead) that CountingRunSink skips.

#include <benchmark/benchmark.h>

#include "core/batched_replacement_selection.h"
#include "core/batched_two_way_replacement_selection.h"
#include "core/load_sort_store.h"
#include "core/replacement_selection.h"
#include "core/run_sink.h"
#include "core/two_way_replacement_selection.h"
#include "io/mem_env.h"
#include "workload/generators.h"

namespace twrs {
namespace {

constexpr size_t kMemory = 4096;
constexpr uint64_t kRecords = 200000;

// Runs `generator` over `records` records of `dataset` into a
// CountingRunSink, or with `to_files` into a FileRunSink over a fresh
// MemEnv per iteration.
void RunGenerator(benchmark::State& state, RunGenerator* generator,
                  Dataset dataset, bool to_files = false,
                  uint64_t records = kRecords) {
  uint64_t runs = 0;
  for (auto _ : state) {
    WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = 7;
    auto source = MakeWorkload(dataset, workload);
    MemEnv env;
    // 4 KiB reverse-stream pages (the thesis's): with the default 64 KiB,
    // each decreasing stream's first write would zero a 4 MiB MemEnv file.
    FileRunSinkOptions file_options;
    file_options.reverse.page_bytes = 4096;
    FileRunSink file_sink(&env, "runs", "r", file_options);
    CountingRunSink counting_sink;
    RunSink* sink = to_files ? static_cast<RunSink*>(&file_sink)
                             : static_cast<RunSink*>(&counting_sink);
    RunGenStats stats;
    const Status s = generator->Generate(source.get(), sink, &stats);
    benchmark::DoNotOptimize(s.ok());
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    runs = stats.num_runs();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
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

void BM_BatchedReplacementSelectionFile(benchmark::State& state) {
  BatchedReplacementSelectionOptions options;
  options.memory_records = kMemory;
  options.batch_records = kMemory / 8;
  BatchedReplacementSelection generator(options);
  RunGenerator(state, &generator, static_cast<Dataset>(state.range(0)),
               /*to_files=*/true);
}
BENCHMARK(BM_BatchedReplacementSelectionFile)
    ->DenseRange(0, kNumDatasets - 1);

void BM_TwoWayReplacementSelection(benchmark::State& state) {
  TwoWayReplacementSelection generator(TwoWayOptions::Recommended(kMemory));
  RunGenerator(state, &generator, static_cast<Dataset>(state.range(0)));
}
BENCHMARK(BM_TwoWayReplacementSelection)->DenseRange(0, kNumDatasets - 1);

// Batched 2WRS at memory range(1): 1/64 of it per batch, capped at 1024,
// so the batch size moves with memory; the input stays kRecords / kMemory
// memories long.
void BatchedTwoWay(benchmark::State& state, bool to_files) {
  const auto memory = static_cast<size_t>(state.range(1));
  BatchedTwoWayReplacementSelection generator(
      TwoWayOptions::Recommended(memory));
  RunGenerator(state, &generator, static_cast<Dataset>(state.range(0)),
               to_files, kRecords / kMemory * memory);
}

void BM_BatchedTwoWayReplacementSelection(benchmark::State& state) {
  BatchedTwoWay(state, /*to_files=*/false);
}
BENCHMARK(BM_BatchedTwoWayReplacementSelection)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumDatasets - 1, 1),
                   {kMemory, 65536}});

void BM_BatchedTwoWayReplacementSelectionFile(benchmark::State& state) {
  BatchedTwoWay(state, /*to_files=*/true);
}
BENCHMARK(BM_BatchedTwoWayReplacementSelectionFile)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumDatasets - 1, 1),
                   {kMemory, 65536}});

}  // namespace
}  // namespace twrs

BENCHMARK_MAIN();
