// Measures the top-K selection paths (src/select) against the full-sort
// baseline: for K/N ratios of 0.1%, 1% and 10%, and K either side of the
// memory, the same input is answered by a LIMIT sort, which runs the
// bounded dual-heap selection while K fits the memory and run generation
// plus the run-pruning merge past it (the strategy column says which);
// the full sort then truncate is the baseline. All of them run over a
// real-time simulated disk (default profile), so wall time reflects the
// I/O each plan actually issues: the dual heap reads the input once and
// writes K records; the pruning merge still writes every run but clamps
// what the merge reads back. Reported per row: wall and simulated
// seconds, bytes moved, pruning counters, and speedup over the full sort
// (which is run once — truncating its output is free and K-independent).
//
// Expected shape: dual-heap wins by an order of magnitude whenever K fits
// in memory. Run pruning moves strictly fewer bytes than the full merge,
// but its boundary probes are small random reads — on this seek-dominated
// disk profile the saved bandwidth does not buy back the probe seeks, so
// its wall time only beats the full sort on bandwidth-bound devices or
// when runs cover disjoint key bands (see the external_sorter_test banded
// case). That tradeoff is the point of reporting both plans side by side.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "select/topk.h"

namespace twrs {
namespace bench {
namespace {

struct TopKRun {
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  ExternalSortResult result;
};

/// One sort of `input` at `limit` (0 = the full-sort baseline).
TopKRun RunOne(PosixEnv* posix, const std::string& input,
               const std::string& dir, size_t memory, uint64_t limit) {
  DiskModelConfig disk;
  disk.realtime = true;
  SimDiskEnv env(posix, disk);

  ExternalSortOptions options;
  options.memory_records = memory;
  options.temp_dir = dir + "/tmp";
  options.limit = limit;
  ExternalSorter sorter(&env, options);

  FileRecordSource source(&env, input);
  env.model().Reset();
  Stopwatch wall;
  TopKRun run;
  CheckOk(sorter.Sort(&source, dir + "/out", &run.result), "sort");
  run.wall_seconds = wall.ElapsedSeconds();
  run.sim_seconds = env.model().SimulatedSeconds();

  uint64_t count = 0;
  CheckOk(VerifySortedFile(posix, dir + "/out", &count, nullptr), "verify");
  const uint64_t expected =
      limit > 0 ? std::min(limit, run.result.run_gen.total_records)
                : run.result.run_gen.total_records;
  if (count != expected) {
    fprintf(stderr, "FATAL K=%llu wrote %llu records, want %llu\n",
            static_cast<unsigned long long>(limit),
            static_cast<unsigned long long>(count),
            static_cast<unsigned long long>(expected));
    abort();
  }
  CheckOk(posix->RemoveFile(dir + "/out"), "cleanup out");
  return run;
}

void Run() {
  const std::string dir = ScratchDir();
  const uint64_t records = Scaled(400000);
  const size_t memory = static_cast<size_t>(Scaled(8192));

  PosixEnv posix;
  WorkloadOptions workload;
  workload.num_records = records;
  workload.seed = 1;
  const std::string input = dir + "/input";
  CheckOk(WriteWorkloadToFile(&posix, Dataset::kRandom, workload, input),
          "write workload");

  printf("== Top-K selection vs full sort (src/select) ==\n");
  printf(
      "%llu random records, memory %zu records, real-time simulated "
      "disk\n\n",
      static_cast<unsigned long long>(records), memory);

  // The baseline is K-independent: one full sort serves every ratio.
  const TopKRun full = RunOne(&posix, input, dir, memory, 0);

  TablePrinter table({"K", "strategy", "wall s", "sim s", "MiB read",
                      "MiB written", "runs pruned", "rec pruned",
                      "speedup"});
  const auto add = [&](uint64_t limit, const TopKRun& run) {
    const double speedup =
        run.wall_seconds > 0 ? full.wall_seconds / run.wall_seconds : 0.0;
    const char* strategy =
        limit > 0 ? TopKStrategyName(run.result.topk_strategy) : "full-sort";
    table.AddRow(
        {std::to_string(limit), strategy,
         TablePrinter::Num(run.wall_seconds, 3),
         TablePrinter::Num(run.sim_seconds, 3),
         TablePrinter::Num(
             static_cast<double>(run.result.bytes_read) / (1024.0 * 1024),
             2),
         TablePrinter::Num(static_cast<double>(run.result.bytes_written) /
                               (1024.0 * 1024),
                           2),
         std::to_string(run.result.merge.runs_pruned),
         std::to_string(run.result.merge.records_pruned),
         TablePrinter::Num(speedup, 2)});

    JsonEntry entry;
    entry.Str("bench_case", "topk")
        .Str("strategy", strategy)
        .Str("order", "asc")
        .Int("limit", limit)
        .Int("records", records)
        .Int("memory_records", memory)
        .Int("num_runs", run.result.run_gen.num_runs())
        .Num("wall_seconds", run.wall_seconds)
        .Num("sim_seconds", run.sim_seconds)
        .Int("bytes_read", run.result.bytes_read)
        .Int("bytes_written", run.result.bytes_written)
        .Int("runs_pruned", run.result.merge.runs_pruned)
        .Int("records_pruned", run.result.merge.records_pruned)
        .Num("speedup_vs_full_sort", speedup);
    JsonReporter::Global().Add(entry);
  };
  add(0, full);

  const auto at_ratio = [&](double ratio) {
    return static_cast<uint64_t>(static_cast<double>(records) * ratio);
  };
  for (const uint64_t k : {at_ratio(0.001), at_ratio(0.01), uint64_t{memory},
                           uint64_t{memory} + 1, at_ratio(0.1)}) {
    add(k, RunOne(&posix, input, dir, memory, k));
  }
  table.Print(std::cout);

  CheckOk(posix.RemoveFile(input), "cleanup input");
  RemoveTreeBestEffort(&posix, dir);
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
