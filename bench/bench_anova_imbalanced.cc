// Reproduces the statistical analysis of §5.2.6 (mixed imbalanced input):
//  - Table 5.11 analogue: WLS ANOVA with first- and second-order
//    interactions of buffer setup, input heuristic and output heuristic.
//  - Figure 5.11: mean runs by buffer setup.
//  - Figure 5.12: mean runs by input heuristic for each buffer setup — the
//    paper's key observation is that Mean/Median profit from having both
//    buffers while the other heuristics are setup-insensitive.
//  - Table 5.12 analogue: Tukey comparison over the (setup x input x
//    output) interaction cells restricted to the best levels.

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

const char* InputName(int l) {
  return InputHeuristicName(static_cast<InputHeuristic>(l));
}
const char* SetupName(int s) {
  const char* names[] = {"input only", "both", "victim only"};
  return names[s];
}

void Run() {
  const size_t memory = static_cast<size_t>(Scaled(1200));
  const uint64_t records = Scaled(48000);
  const int seeds = 3;
  printf("== §5.2.6: ANOVA for mixed imbalanced input ==\n");
  printf("memory = %zu, input = %llu records, %d seeds\n\n", memory,
         static_cast<unsigned long long>(records), seeds);

  std::vector<Observation> obs =
      RunFactorial(Dataset::kMixedImbalanced, memory, records, seeds);
  CheckOk(ApplyWlsWeights(&obs, /*factor=*/1, kNumBufferSizeLevels), "wls");

  printf("-- Table 5.11 analogue: WLS model with interactions --\n");
  const std::vector<AnovaTerm> terms = {{{0}},    {{1}},    {{2}},
                                        {{3}},    {{0, 2}}, {{0, 3}},
                                        {{2, 3}}, {{0, 2, 3}}};
  AnovaResult result;
  CheckOk(FitAnova(obs, kLevels, terms, &result), "anova");
  PrintAnovaTable(result, terms, kFactorNames);
  printf("\n");

  printf("-- Figure 5.11: mean runs by buffer setup --\n");
  {
    TablePrinter table({"Buffer setup", "mean runs"});
    for (int setup = 0; setup < kBufferSetupLevels; ++setup) {
      double sum = 0.0;
      int n = 0;
      for (const Observation& o : obs) {
        if (o.levels[0] != setup) continue;
        sum += o.y;
        ++n;
      }
      table.AddRow({SetupName(setup), TablePrinter::Num(sum / n, 1)});
    }
    table.Print(std::cout);
    printf("(paper: using both buffers gives the best average)\n\n");
  }

  printf("-- Figure 5.12: mean runs by input heuristic per buffer setup --\n");
  {
    TablePrinter table([&] {
      std::vector<std::string> headers = {"input heuristic"};
      for (int s = 0; s < kBufferSetupLevels; ++s) headers.push_back(SetupName(s));
      return headers;
    }());
    for (int ih = 0; ih < kNumInputHeuristics; ++ih) {
      std::vector<std::string> row = {InputName(ih)};
      for (int setup = 0; setup < kBufferSetupLevels; ++setup) {
        double sum = 0.0;
        int n = 0;
        for (const Observation& o : obs) {
          if (o.levels[0] != setup || o.levels[2] != ih) continue;
          sum += o.y;
          ++n;
        }
        row.push_back(TablePrinter::Num(sum / n, 1));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
    printf(
        "(paper: Mean and Median improve sharply when both buffers exist;\n"
        " the other heuristics barely react to the buffer setup)\n\n");
  }

  printf("-- Table 5.12 analogue: Tukey over (setup x input heuristic) --\n");
  {
    int combined_levels = 0;
    std::vector<Observation> combined =
        CombineFactors(obs, {0, 2}, kLevels, &combined_levels);
    TukeyResult tukey;
    CheckOk(TukeyHSD(combined, 0, combined_levels, result.ms_error,
                     result.df_error, &tukey),
            "tukey");
    printf("best (setup, input heuristic) cells at alpha 0.05:\n");
    for (int level : tukey.BestLevels()) {
      const int setup = level / kNumInputHeuristics;
      const int ih = level % kNumInputHeuristics;
      printf("  %s + %s (mean runs %.1f)\n", SetupName(setup), InputName(ih),
             tukey.level_means[level]);
    }
  }
  printf(
      "\nExpected shape (paper): the optimal cells pair both buffers with\n"
      "the Mean or Median input heuristic.\n");
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
