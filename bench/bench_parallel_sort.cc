// Measures the pipelined execution subsystem (src/exec): a bench_fig6_6-sized
// full sort on the simulated-disk env, serial vs parallel. The parallel path
// overlaps run flushing with heap work (AsyncWritableFile), keeps read-ahead
// blocks in flight per merge input (PrefetchingSequentialFile), and
// dispatches independent same-level merges onto the thread pool. Output is
// verified identical (count + checksum) between the two paths; the
// interesting column is the wall-clock speedup. Further sections sweep the
// partitioned final merge, parallel run generation (P generators sharing
// one memory budget, or each holding the whole budget), the run-generation
// count PlanParallelism picks against P = 1, and the I/O backend. Every row runs on its own Executor sized to its thread count,
// so pool sizes do not depend on the process-wide shared executor.

#include <algorithm>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "exec/executor.h"
#include "service/parallel_planner.h"

namespace twrs {
namespace bench {
namespace {

/// A row's own pool: `threads` workers, created on the row's first Submit.
ExecutorOptions PoolOf(size_t threads) {
  ExecutorOptions options;
  options.capacity = std::max<size_t>(1, threads);
  return options;
}

double Mib(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// The q-th quantile (0..1) of `values` by linear interpolation.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

void Run() {
  const std::string dir = ScratchDir();
  const uint64_t records = Scaled(1000000);
  const size_t memory = static_cast<size_t>(Scaled(10000));
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());

  // A real-time emulated disk, scaled ~10x faster than the paper's 2010
  // drive so the bench stays quick: the sort actually waits out its
  // simulated I/O, which is what gives the pipelined path latency to hide.
  DiskModelConfig disk;
  disk.realtime = true;
  disk.seek_seconds = 0.0008;
  disk.bandwidth_bytes_per_second = 1024.0 * 1024 * 1024;

  printf("== Parallel external sort: serial vs pipelined (src/exec) ==\n");
  printf(
      "input = %llu records, memory = %zu records, fan-in = 10,\n"
      "real-time emulated disk (%.1f ms seek, %.0f MiB/s)\n\n",
      static_cast<unsigned long long>(records), memory,
      disk.seek_seconds * 1000,
      disk.bandwidth_bytes_per_second / (1024.0 * 1024));

  TablePrinter table({"threads", "total s", "run gen s", "merge s", "runs",
                      "speedup"});
  double serial_seconds = 0.0;
  for (size_t threads : {size_t{0}, size_t{2}, size_t{4}, hw}) {
    TimedSortSpec spec;
    spec.dataset = Dataset::kRandom;
    spec.records = records;
    spec.memory = memory;
    spec.scratch_dir = dir;
    spec.algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;
    spec.parallel.worker_threads = threads;
    spec.parallel.prefetch_blocks = threads == 0 ? 0 : 2;
    Executor executor(PoolOf(threads));
    spec.parallel.executor = &executor;
    spec.disk = disk;
    spec.label = threads == 0 ? "serial" : "parallel";
    const TimedSort timed = RunTimedSort(spec);
    if (threads == 0) serial_seconds = timed.total_seconds;
    table.AddRow({std::to_string(threads),
                  TablePrinter::Num(timed.total_seconds, 3),
                  TablePrinter::Num(timed.run_gen_seconds, 3),
                  TablePrinter::Num(timed.total_seconds -
                                        timed.run_gen_seconds, 3),
                  std::to_string(timed.num_runs),
                  TablePrinter::Num(
                      timed.total_seconds > 0
                          ? serial_seconds / timed.total_seconds
                          : 0.0, 2)});
  }
  table.Print(std::cout);
  printf(
      "\nExpected shape: >= 1.15x total speedup with 2+ worker threads; the\n"
      "merge phase parallelizes across same-level leaf merges while run\n"
      "generation gains come from overlapping run flushes with heap work.\n");

  // Final-merge thread sweep: worker count fixed at hw, the last pass split
  // into P concurrent partial merges over key-domain partitions (each
  // writing its byte range of the output through a RangeWritableFile). P = 1
  // is the serial final pass the other rows above already used. The sweep
  // runs on a flash-like profile (50 us positioning) rather than the
  // rotating-disk model: splitter sampling and boundary search pay a fixed
  // number of positioned probes, so a 0.8 ms seek disk is exactly where a
  // partitioned last pass should NOT be used — the win comes on devices
  // where positioning is cheap and the serial loser tree is CPU-bound.
  DiskModelConfig flash = disk;
  flash.seek_seconds = 0.00005;
  printf("\n== Final-merge partition sweep (P partial merges, %zu workers, "
         "flash-like disk) ==\n\n", hw);
  TablePrinter fm_table({"fm threads", "total s", "run gen s", "merge s",
                         "runs", "speedup"});
  double fm_serial_seconds = 0.0;
  std::vector<size_t> fm_counts;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, hw}) {
    if (std::find(fm_counts.begin(), fm_counts.end(), threads) ==
        fm_counts.end()) {
      fm_counts.push_back(threads);
    }
  }
  for (size_t fm_threads : fm_counts) {
    TimedSortSpec spec;
    spec.dataset = Dataset::kRandom;
    spec.records = records;
    spec.memory = memory;
    spec.scratch_dir = dir;
    spec.algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;
    spec.parallel.worker_threads = hw;
    spec.parallel.prefetch_blocks = 2;
    spec.parallel.final_merge_threads = fm_threads;
    Executor executor(PoolOf(hw));
    spec.parallel.executor = &executor;
    spec.disk = flash;
    spec.label = fm_threads <= 1 ? "final-merge-serial"
                                 : "final-merge-partitioned";
    const TimedSort timed = RunTimedSort(spec);
    if (fm_threads == 1) fm_serial_seconds = timed.total_seconds;
    fm_table.AddRow({std::to_string(fm_threads),
                     TablePrinter::Num(timed.total_seconds, 3),
                     TablePrinter::Num(timed.run_gen_seconds, 3),
                     TablePrinter::Num(timed.total_seconds -
                                           timed.run_gen_seconds, 3),
                     std::to_string(timed.num_runs),
                     TablePrinter::Num(
                         timed.total_seconds > 0
                             ? fm_serial_seconds / timed.total_seconds
                             : 0.0, 2)});
  }
  fm_table.Print(std::cout);
  printf(
      "\nExpected shape: the merge column shrinks as P grows until the\n"
      "emulated disk's bandwidth, not the single loser tree, is the\n"
      "bottleneck; output bytes are identical at every P.\n");

  // Run-generation thread sweep: P generators on a pool of max(P, 2)
  // workers, each taking whole batches of the one input. "shared" rows
  // split `memory` P ways, so the sort holds what a serial one does and
  // makes about P times as many runs; "per-gen" rows give every generator
  // the whole `memory` (P times the budget in total). The final merge
  // stays serial. Read volume adds the input file once, which the
  // engine's own counters leave out. Rows run on the emulated disk and
  // on the real filesystem; output identity is pinned by checksum.
  printf("\n== Run-generation threads: P generators, shared or per-generator "
         "memory ==\n\n");
  TablePrinter rg_table({"disk", "P", "memory", "total s", "run gen s",
                         "merge s", "runs", "merges", "MiB read+in",
                         "MiB written"});
  uint64_t rg_ref_count = 0;
  KeyChecksum rg_ref_sum;
  bool rg_have_ref = false;
  const uint64_t input_bytes = records * kRecordBytes;
  for (const bool real_fs : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      for (const bool per_generator : {false, true}) {
        if (threads == 1 && per_generator) continue;  // same as shared
        TimedSortSpec spec;
        spec.dataset = Dataset::kRandom;
        spec.records = records;
        spec.memory = per_generator ? memory * threads : memory;
        spec.scratch_dir = dir;
        spec.algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;
        spec.parallel.worker_threads = std::max<size_t>(2, threads);
        spec.parallel.prefetch_blocks = 2;
        spec.parallel.run_generation_threads = threads;
        Executor executor(PoolOf(spec.parallel.worker_threads));
        spec.parallel.executor = &executor;
        spec.disk = disk;
        // The label carries P: the JSON rows share every other field.
        spec.label = "rungen-p" + std::to_string(threads) +
                     (per_generator ? "-per-generator-memory"
                                    : "-shared-memory");
        TimedSort timed;
        if (real_fs) {
          uint64_t count = 0;
          KeyChecksum sum;
          timed = RunBackendTimedSort(spec, IoBackend::kPosix, &count, &sum);
          if (!rg_have_ref) {
            rg_ref_count = count;
            rg_ref_sum = sum;
            rg_have_ref = true;
          } else if (count != rg_ref_count || !(sum == rg_ref_sum)) {
            fprintf(stderr, "FATAL P=%zu output differs from P=1\n",
                    threads);
            abort();
          }
        } else {
          timed = RunTimedSort(spec);
        }
        rg_table.AddRow(
            {real_fs ? "real" : "emulated", std::to_string(threads),
             per_generator ? std::to_string(memory) + " x P"
                           : std::to_string(memory),
             TablePrinter::Num(timed.total_seconds, 3),
             TablePrinter::Num(timed.run_gen_seconds, 3),
             TablePrinter::Num(timed.total_seconds - timed.run_gen_seconds,
                               3),
             std::to_string(timed.num_runs),
             std::to_string(timed.merge_steps),
             TablePrinter::Num(Mib(timed.bytes_read + input_bytes), 1),
             TablePrinter::Num(Mib(timed.bytes_written), 1)});
      }
    }
  }
  rg_table.Print(std::cout);
  printf(
      "\nExpected shape: shared rows make about P times the runs of P = 1;\n"
      "they move the same bytes only while that count fits as many merge\n"
      "passes (at this size it does not: 52 runs take two passes at fan-in\n"
      "10, 104 take three). Per-generator rows keep the run count of P = 1\n"
      "but hold P times the memory. Run generation time falls with P where\n"
      "heap work, not the disk, bounds it.\n");

  // Planner regime: a memory large enough that PlanParallelism, on an idle
  // pool of 4 workers, picks P > 1 (its expected run count still fits the
  // one merge pass of P = 1). Each round sorts the same input three ways,
  // in rotating order: P = 1 with a serial final merge, P = 1 with the
  // final-merge split the planner gives a lone generator (min(workers,
  // runs)), and the planned P with the planner's split. Output identity is
  // pinned by checksum on the real filesystem.
  const size_t plan_memory = static_cast<size_t>(Scaled(300000));
  constexpr size_t kPlanWorkers = 4;
  constexpr int kPlanRounds = 10;
  ParallelPlanInputs plan_inputs;
  plan_inputs.input_records = records;
  plan_inputs.memory_records = plan_memory;
  plan_inputs.fan_in = 10;
  plan_inputs.executor_capacity = kPlanWorkers;
  const ParallelPlan plan = PlanParallelism(plan_inputs);
  printf("\n== Planner regime: P = 1 against the planned P (%zu memory, "
         "%zu workers, %d rounds) ==\n\n",
         plan_memory, kPlanWorkers, kPlanRounds);
  printf("planned: %zu run generators (%s), final merge %zu\n\n",
         plan.run_generation_threads, ParallelPlanLimitName(plan.limit),
         plan.final_merge_threads);
  TablePrinter plan_table({"disk", "P", "final merge", "median s", "q1 s",
                           "q3 s", "planned faster", "runs", "merges",
                           "MiB read+in", "MiB written"});
  for (const bool real_fs : {false, true}) {
    uint64_t ref_count = 0;
    KeyChecksum ref_sum;
    bool have_ref = false;
    auto sort_once = [&](size_t threads, size_t final_threads,
                         const std::string& label) {
      TimedSortSpec spec;
      spec.dataset = Dataset::kRandom;
      spec.records = records;
      spec.memory = plan_memory;
      spec.scratch_dir = dir;
      spec.parallel.worker_threads = kPlanWorkers;
      spec.parallel.prefetch_blocks = 2;
      spec.parallel.run_generation_threads = threads;
      spec.parallel.final_merge_threads = final_threads;
      Executor executor(PoolOf(kPlanWorkers));
      spec.parallel.executor = &executor;
      spec.disk = disk;
      spec.label = label;
      if (!real_fs) return RunTimedSort(spec);
      uint64_t count = 0;
      KeyChecksum sum;
      const TimedSort timed =
          RunBackendTimedSort(spec, IoBackend::kPosix, &count, &sum);
      if (!have_ref) {
        ref_count = count;
        ref_sum = sum;
        have_ref = true;
      } else if (count != ref_count || !(sum == ref_sum)) {
        fprintf(stderr, "FATAL planner-regime %s output differs\n",
                label.c_str());
        abort();
      }
      return timed;
    };
    // An unreported serial sort warms the caches and counts the runs that
    // cap the lone generator's final-merge split.
    const size_t lone_final = static_cast<size_t>(std::min<uint64_t>(
        kPlanWorkers,
        std::max<uint64_t>(1, sort_once(1, 1, "planner-regime-warmup")
                                  .num_runs)));
    struct Config {
      size_t threads;
      size_t final_threads;
      const char* label;
    };
    const Config configs[3] = {
        {1, 1, "planner-regime-p1-serial-merge"},
        {1, lone_final, "planner-regime-p1-split-merge"},
        {plan.run_generation_threads, plan.final_merge_threads,
         "planner-regime-planned"}};
    std::vector<double> seconds[3];
    TimedSort last[3];
    int planned_faster[3] = {0, 0, 0};
    for (int round = 0; round < kPlanRounds; ++round) {
      double round_seconds[3] = {0.0, 0.0, 0.0};
      for (int k = 0; k < 3; ++k) {
        const int c = (round + k) % 3;
        last[c] = sort_once(configs[c].threads, configs[c].final_threads,
                            configs[c].label);
        round_seconds[c] = last[c].total_seconds;
        seconds[c].push_back(last[c].total_seconds);
      }
      for (int c = 0; c < 2; ++c) {
        if (round_seconds[2] < round_seconds[c]) ++planned_faster[c];
      }
    }
    for (int c = 0; c < 3; ++c) {
      const double median = Quantile(seconds[c], 0.5);
      plan_table.AddRow(
          {real_fs ? "real" : "emulated", std::to_string(configs[c].threads),
           std::to_string(configs[c].final_threads),
           TablePrinter::Num(median, 3),
           TablePrinter::Num(Quantile(seconds[c], 0.25), 3),
           TablePrinter::Num(Quantile(seconds[c], 0.75), 3),
           c < 2 ? std::to_string(planned_faster[c]) + "/" +
                       std::to_string(kPlanRounds)
                 : "-",
           std::to_string(last[c].num_runs),
           std::to_string(last[c].merge_steps),
           TablePrinter::Num(Mib(last[c].bytes_read + input_bytes), 1),
           TablePrinter::Num(Mib(last[c].bytes_written), 1)});
      JsonEntry entry;
      entry.Str("label", std::string(configs[c].label) + "-median")
          .Str("disk", real_fs ? "real" : "emulated")
          .Int("records", records)
          .Int("memory_records", plan_memory)
          .Int("rounds", kPlanRounds)
          .Num("median_total_seconds", median);
      JsonReporter::Global().Add(entry);
    }
  }
  plan_table.Print(std::cout);
  printf(
      "\nExpected shape: every row takes one merge pass and writes about\n"
      "the same bytes (the planned row's extra runs fit the pass, which is\n"
      "the planner's rule). The planned P is faster than both P = 1 rows in\n"
      "most rounds: run generation, the phase P splits, is most of this\n"
      "sort. \"planned faster\" counts the rounds it beat that row.\n");

  // I/O backend sweep: the same sort on the REAL filesystem, posix
  // (pump-thread decorators) vs io_uring (kernel rings, thin decorators).
  // Serial rows isolate the backends' raw write/read paths; pipelined rows
  // pit the uring Env's native overlap against the posix pump threads the
  // capability gates replace. Output identity across every cell is pinned
  // by checksum — a divergent backend aborts the bench.
  printf("\n== I/O backend sweep: posix vs io_uring (real filesystem) ==\n");
  if (!IoUringEnv::IsSupported()) {
    printf("io_uring unavailable, sweep skipped: %s\n",
           IoUringEnv::UnsupportedReason().c_str());
    return;
  }
  printf("\n");
  TablePrinter io_table({"backend", "threads", "total s", "run gen s",
                         "merge s", "vs posix"});
  uint64_t ref_count = 0;
  KeyChecksum ref_sum;
  bool have_ref = false;
  for (size_t threads : {size_t{0}, hw}) {
    double posix_seconds = 0.0;
    for (IoBackend backend : {IoBackend::kPosix, IoBackend::kUring}) {
      TimedSortSpec spec;
      spec.dataset = Dataset::kRandom;
      spec.records = records;
      spec.memory = memory;
      spec.scratch_dir = dir;
      spec.algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;
      spec.parallel.worker_threads = threads;
      spec.parallel.prefetch_blocks = threads == 0 ? 0 : 2;
      Executor executor(PoolOf(threads));
      spec.parallel.executor = &executor;
      spec.label = threads == 0 ? "backend-serial" : "backend-pipelined";
      uint64_t count = 0;
      KeyChecksum sum;
      const TimedSort timed = RunBackendTimedSort(spec, backend, &count, &sum);
      if (!have_ref) {
        ref_count = count;
        ref_sum = sum;
        have_ref = true;
      } else if (count != ref_count || !(sum == ref_sum)) {
        fprintf(stderr, "FATAL %s output differs from posix baseline\n",
                IoBackendName(backend));
        abort();
      }
      if (backend == IoBackend::kPosix) posix_seconds = timed.total_seconds;
      io_table.AddRow({IoBackendName(backend), std::to_string(threads),
                       TablePrinter::Num(timed.total_seconds, 3),
                       TablePrinter::Num(timed.run_gen_seconds, 3),
                       TablePrinter::Num(timed.total_seconds -
                                             timed.run_gen_seconds, 3),
                       TablePrinter::Num(
                           timed.total_seconds > 0
                               ? posix_seconds / timed.total_seconds
                               : 0.0, 2)});
    }
  }
  io_table.Print(std::cout);
  printf(
      "\nExpected shape: uring >= 1.0x vs posix on the write-heavy run\n"
      "generation phase; the ring batches submissions where the posix path\n"
      "pays a pump-thread handoff (or a blocking write when serial) per\n"
      "block. Outputs are byte-identical across backends by construction.\n");
}

}  // namespace
}  // namespace bench
}  // namespace twrs

int main(int argc, char** argv) {
  twrs::bench::ParseBenchArgs(argc, argv);
  twrs::bench::Run();
  twrs::bench::JsonReporter::Global().Flush();
  return 0;
}
