#ifndef TWRS_BENCH_BENCH_PAPER_H_
#define TWRS_BENCH_BENCH_PAPER_H_

// Helpers of the paper-reproduction drivers (Chapters 5 and 6): run counts
// of the record-at-a-time references and the §5.2 factorial experiment.
// Drivers that include this header link twrs_paper.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/heuristics.h"
#include "core/replacement_selection.h"
#include "core/two_way_replacement_selection.h"
#include "stats/anova.h"

namespace twrs {
namespace bench {

/// Counts the runs RS generates for a dataset (no file I/O).
inline RunGenStats CountRs(size_t memory, Dataset dataset,
                           WorkloadOptions workload) {
  auto source = MakeWorkload(dataset, workload);
  ReplacementSelectionOptions options;
  options.memory_records = memory;
  ReplacementSelection rs(options);
  CountingRunSink sink;
  RunGenStats stats;
  CheckOk(rs.Generate(source.get(), &sink, &stats), "RS generate");
  return stats;
}

/// Counts the runs 2WRS generates for a dataset (no file I/O).
inline RunGenStats Count2wrs(const TwoWayOptions& options, Dataset dataset,
                             WorkloadOptions workload) {
  auto source = MakeWorkload(dataset, workload);
  TwoWayReplacementSelection twrs(options);
  CountingRunSink sink;
  RunGenStats stats;
  CheckOk(twrs.Generate(source.get(), &sink, &stats), "2WRS generate");
  return stats;
}

/// The four ANOVA factors of §5.2 with the paper's levels.
inline constexpr int kBufferSetupLevels = 3;  // input only / both / victim only
inline constexpr double kBufferSizeLevels[] = {0.0002, 0.002, 0.02, 0.2};
inline constexpr int kNumBufferSizeLevels = 4;

inline TwoWayOptions ConfigForLevels(size_t memory, int setup, int size,
                                     int input_h, int output_h,
                                     uint64_t seed) {
  TwoWayOptions options;
  options.memory_records = memory;
  options.buffer_fraction = kBufferSizeLevels[size];
  options.use_input_buffer = setup == 0 || setup == 1;
  options.use_victim_buffer = setup == 1 || setup == 2;
  options.input_heuristic = static_cast<InputHeuristic>(input_h);
  options.output_heuristic = static_cast<OutputHeuristic>(output_h);
  options.seed = seed;
  return options;
}

/// Runs the §5.2 crossed factorial experiment for one dataset and returns
/// ANOVA observations (factors: buffer setup, buffer size, input heuristic,
/// output heuristic; response: number of runs).
inline std::vector<Observation> RunFactorial(Dataset dataset, size_t memory,
                                             uint64_t records, int seeds) {
  std::vector<Observation> observations;
  for (int setup = 0; setup < kBufferSetupLevels; ++setup) {
    for (int size = 0; size < kNumBufferSizeLevels; ++size) {
      for (int ih = 0; ih < kNumInputHeuristics; ++ih) {
        for (int oh = 0; oh < kNumOutputHeuristics; ++oh) {
          for (int seed = 1; seed <= seeds; ++seed) {
            WorkloadOptions workload;
            workload.num_records = records;
            workload.seed = static_cast<uint64_t>(seed);
            const TwoWayOptions options =
                ConfigForLevels(memory, setup, size, ih, oh, seed);
            const RunGenStats stats = Count2wrs(options, dataset, workload);
            Observation obs;
            obs.levels = {setup, size, ih, oh};
            obs.y = static_cast<double>(stats.num_runs());
            observations.push_back(std::move(obs));
          }
        }
      }
    }
  }
  return observations;
}

/// Prints an AnovaResult in the layout of the paper's Tables 5.2–5.11.
inline void PrintAnovaTable(const AnovaResult& result,
                            const std::vector<AnovaTerm>& terms,
                            const std::vector<std::string>& factor_names) {
  TablePrinter table({"Factor", "SS", "D.F.", "MSS", "F", "Sig.", "Power"});
  for (size_t t = 0; t < result.rows.size(); ++t) {
    const AnovaRow& row = result.rows[t];
    table.AddRow({terms[t].Name(factor_names), TablePrinter::Num(row.ss, 3),
                  std::to_string(row.df), TablePrinter::Num(row.ms, 3),
                  TablePrinter::Num(row.f, 3),
                  TablePrinter::Num(row.significance, 4),
                  TablePrinter::Num(row.power, 3)});
  }
  table.AddRow({"Residual", TablePrinter::Num(result.ss_error, 3),
                std::to_string(result.df_error),
                TablePrinter::Num(result.ms_error, 3), "", "", ""});
  table.Print(std::cout);
  printf("R^2 = %.3f   sigma = %.3f   CV = %.2f%%   grand mean = %.2f\n",
         result.r_squared, result.sigma, result.cv_percent,
         result.grand_mean);
}

}  // namespace bench
}  // namespace twrs

#endif  // TWRS_BENCH_BENCH_PAPER_H_
