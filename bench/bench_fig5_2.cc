// Reproduces Figure 5.2 of the paper: distribution of the number of runs
// generated by 2WRS as a function of the input dataset, across the
// configuration sweep (the paper plots all 2160 configurations; this prints
// the five-number summary per dataset, which captures the same story: some
// datasets are configuration-insensitive, the mixed ones are not).

#include <algorithm>

#include "bench/bench_paper.h"

namespace twrs {
namespace bench {
namespace {

void Run() {
  const size_t memory = static_cast<size_t>(Scaled(1200));
  const uint64_t records = Scaled(48000);
  printf("== Figure 5.2: number of runs by input dataset ==\n");
  printf("memory = %zu records, input = %llu records, %d configs/dataset\n\n",
         memory, static_cast<unsigned long long>(records),
         kBufferSetupLevels * kNumBufferSizeLevels * kNumInputHeuristics *
             kNumOutputHeuristics);

  TablePrinter table(
      {"Input", "min", "q1", "median", "q3", "max", "RS (reference)"});
  for (int d = 0; d < kNumDatasets; ++d) {
    const Dataset dataset = static_cast<Dataset>(d);
    std::vector<double> runs;
    for (int setup = 0; setup < kBufferSetupLevels; ++setup) {
      for (int size = 0; size < kNumBufferSizeLevels; ++size) {
        for (int ih = 0; ih < kNumInputHeuristics; ++ih) {
          for (int oh = 0; oh < kNumOutputHeuristics; ++oh) {
            WorkloadOptions workload;
            workload.num_records = records;
            workload.seed = 3;
            const RunGenStats stats = Count2wrs(
                ConfigForLevels(memory, setup, size, ih, oh, 3), dataset,
                workload);
            runs.push_back(static_cast<double>(stats.num_runs()));
          }
        }
      }
    }
    std::sort(runs.begin(), runs.end());
    auto quantile = [&](double q) {
      return runs[static_cast<size_t>(q * (runs.size() - 1))];
    };
    WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = 3;
    const RunGenStats rs = CountRs(memory, dataset, workload);
    table.AddRow({DatasetName(dataset), TablePrinter::Num(runs.front(), 0),
                  TablePrinter::Num(quantile(0.25), 0),
                  TablePrinter::Num(quantile(0.5), 0),
                  TablePrinter::Num(quantile(0.75), 0),
                  TablePrinter::Num(runs.back(), 0),
                  std::to_string(rs.num_runs())});
  }
  table.Print(std::cout);
  printf(
      "\nExpected shape (paper): sorted/reverse-sorted collapse to 1 run for\n"
      "every configuration; alternating is configuration-insensitive;\n"
      "random varies only mildly with buffer size; the mixed datasets vary\n"
      "wildly across configurations (their boxes dominate Fig 5.2).\n");
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
