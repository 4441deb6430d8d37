// Reproduces the statistical analysis of §5.2.5 (mixed balanced input):
//  - Figure 5.5: configurations without the victim buffer behave far worse
//    and with much higher variance.
//  - Tables 5.5/5.6: ANOVA over buffer size, input and output heuristics
//    (victim-less configurations removed), with WLS weighting by the
//    variance of each buffer-size level.
//  - Tables 5.7/5.8: Tukey pairwise comparison of input/output heuristics.
//  - Figure 5.8: mean number of runs per (input x output) heuristic pair.

#include "bench/bench_paper.h"
#include "stats/tukey.h"

namespace twrs {
namespace bench {
namespace {

const std::vector<std::string> kFactorNames = {
    "i (buffer setup)", "j (buffer size)", "k (input heuristic)",
    "l (output heuristic)"};
const std::vector<int> kLevels = {kBufferSetupLevels, kNumBufferSizeLevels,
                                  kNumInputHeuristics, kNumOutputHeuristics};

void PrintTukeyMatrix(const TukeyResult& tukey, int levels,
                      const char* (*name)(int)) {
  TablePrinter table([&] {
    std::vector<std::string> headers = {""};
    for (int l = 0; l < levels; ++l) headers.push_back(name(l));
    return headers;
  }());
  for (int i = 0; i < levels; ++i) {
    std::vector<std::string> row = {name(i)};
    for (int j = 0; j < levels; ++j) {
      row.push_back(i == j ? "-" : TablePrinter::Num(tukey.p_values[i][j], 3));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
}

const char* InputName(int l) {
  return InputHeuristicName(static_cast<InputHeuristic>(l));
}
const char* OutputName(int l) {
  return OutputHeuristicName(static_cast<OutputHeuristic>(l));
}

void Run() {
  const size_t memory = static_cast<size_t>(Scaled(1200));
  const uint64_t records = Scaled(48000);
  const int seeds = 3;
  printf("== §5.2.5: ANOVA and Tukey tests for mixed balanced input ==\n");
  printf("memory = %zu, input = %llu records, %d seeds\n\n", memory,
         static_cast<unsigned long long>(records), seeds);

  const std::vector<Observation> all =
      RunFactorial(Dataset::kMixed, memory, records, seeds);

  // Figure 5.5: runs by buffer setup.
  printf("-- Figure 5.5: number of runs by buffer setup --\n");
  {
    TablePrinter table({"Buffer setup", "mean runs", "max runs"});
    const char* setup_names[] = {"input only", "both", "victim only"};
    for (int setup = 0; setup < kBufferSetupLevels; ++setup) {
      double sum = 0.0;
      double max = 0.0;
      int n = 0;
      for (const Observation& obs : all) {
        if (obs.levels[0] != setup) continue;
        sum += obs.y;
        max = std::max(max, obs.y);
        ++n;
      }
      table.AddRow({setup_names[setup], TablePrinter::Num(sum / n, 1),
                    TablePrinter::Num(max, 0)});
    }
    table.Print(std::cout);
    printf("(paper: victim-less configurations are far worse and noisier)\n\n");
  }

  // §5.2.5 removes configurations without the victim buffer, then fits the
  // model on buffer size, input heuristic, output heuristic and their
  // first-order interactions, using WLS weights per buffer-size level.
  std::vector<Observation> with_victim;
  for (const Observation& obs : all) {
    if (obs.levels[0] == 1 || obs.levels[0] == 2) with_victim.push_back(obs);
  }
  CheckOk(ApplyWlsWeights(&with_victim, /*factor=*/1, kNumBufferSizeLevels),
          "wls");

  printf("-- Table 5.6 analogue: WLS model with first-order interactions --\n");
  const std::vector<AnovaTerm> terms = {{{1}},    {{2}},    {{3}},
                                        {{1, 2}}, {{1, 3}}, {{2, 3}}};
  AnovaResult result;
  CheckOk(FitAnova(with_victim, kLevels, terms, &result), "anova");
  PrintAnovaTable(result, terms, kFactorNames);
  printf("\n");

  // Tukey comparisons (Tables 5.7 / 5.8).
  printf("-- Table 5.7: Tukey significance, input heuristics --\n");
  TukeyResult input_tukey;
  CheckOk(TukeyHSD(with_victim, /*factor=*/2, kNumInputHeuristics,
                   result.ms_error, result.df_error, &input_tukey),
          "tukey input");
  PrintTukeyMatrix(input_tukey, kNumInputHeuristics, InputName);
  printf("best input heuristics (min runs, alpha 0.05):");
  for (int l : input_tukey.BestLevels()) printf(" %s", InputName(l));
  printf("\n\n");

  printf("-- Table 5.8: Tukey significance, output heuristics --\n");
  TukeyResult output_tukey;
  CheckOk(TukeyHSD(with_victim, /*factor=*/3, kNumOutputHeuristics,
                   result.ms_error, result.df_error, &output_tukey),
          "tukey output");
  PrintTukeyMatrix(output_tukey, kNumOutputHeuristics, OutputName);
  printf("best output heuristics (min runs, alpha 0.05):");
  for (int l : output_tukey.BestLevels()) printf(" %s", OutputName(l));
  printf("\n\n");

  // Figure 5.8: mean runs per heuristic pair.
  printf("-- Figure 5.8: mean runs per (input x output) heuristic --\n");
  {
    TablePrinter table([&] {
      std::vector<std::string> headers = {"input \\ output"};
      for (int oh = 0; oh < kNumOutputHeuristics; ++oh) {
        headers.push_back(OutputName(oh));
      }
      return headers;
    }());
    for (int ih = 0; ih < kNumInputHeuristics; ++ih) {
      std::vector<std::string> row = {InputName(ih)};
      for (int oh = 0; oh < kNumOutputHeuristics; ++oh) {
        double sum = 0.0;
        int n = 0;
        for (const Observation& obs : with_victim) {
          if (obs.levels[2] != ih || obs.levels[3] != oh) continue;
          sum += obs.y;
          ++n;
        }
        row.push_back(TablePrinter::Num(sum / n, 1));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  printf(
      "\nExpected shape (paper): with the victim buffer, good heuristic\n"
      "pairs collapse the mixed dataset to a handful of runs; the paper's\n"
      "optima use Mean/Median input with Random/Balancing output.\n");
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
