// Reproduces Figure 5.4 of the paper: run length relative to memory as a
// function of the buffer size, for random input. The paper finds a linear
// correlation — dedicating x% of memory to buffers costs about x% of run
// length, because buffers cannot predict random data.

#include "bench/bench_paper.h"

namespace twrs {
namespace bench {
namespace {

void Run() {
  const size_t memory = static_cast<size_t>(Scaled(4000));
  const uint64_t records = Scaled(400000);
  printf("== Figure 5.4: run length vs buffer size (random input) ==\n");
  printf("memory = %zu records, input = %llu records\n\n", memory,
         static_cast<unsigned long long>(records));

  TablePrinter table({"buffer %", "run length / memory", "paper trend"});
  const double fractions[] = {0.0002, 0.002, 0.02, 0.05, 0.10, 0.20};
  for (double fraction : fractions) {
    double total = 0.0;
    const int seeds = 3;
    for (int seed = 1; seed <= seeds; ++seed) {
      TwoWayOptions options = TwoWayOptions::Recommended(memory, seed);
      options.buffer_fraction = fraction;
      WorkloadOptions workload;
      workload.num_records = records;
      workload.seed = static_cast<uint64_t>(seed);
      total += Count2wrs(options, Dataset::kRandom, workload)
                   .AverageRunLengthRelative(memory);
    }
    const double measured = total / seeds;
    const double paper_trend = 2.0 * (1.0 - fraction);
    table.AddRow({TablePrinter::Num(100.0 * fraction, 2),
                  TablePrinter::Num(measured, 3),
                  TablePrinter::Num(paper_trend, 3)});
  }
  table.Print(std::cout);
  printf(
      "\nExpected shape: ~2.0 at tiny buffers, decreasing linearly with the\n"
      "memory ceded to buffers (paper: 'a configuration with 2%% of the\n"
      "memory dedicated to buffers reduces the run length by just 2%%').\n");
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
