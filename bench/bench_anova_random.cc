// Reproduces the statistical analysis of §5.2.4 (random input): the ANOVA
// of Tables 5.2 (all four factors) and 5.3 (buffer size only). The paper
// finds every factor statistically significant but the buffer size (beta)
// dominating by orders of magnitude in F, so the accepted model keeps only
// the buffer size, with R^2 ~= 1.

#include "bench/bench_paper.h"

namespace twrs {
namespace bench {
namespace {

const std::vector<std::string> kFactorNames = {
    "i (buffer setup)", "j (buffer size)", "k (input heuristic)",
    "l (output heuristic)"};
const std::vector<int> kLevels = {kBufferSetupLevels, kNumBufferSizeLevels,
                                  kNumInputHeuristics, kNumOutputHeuristics};

void Run() {
  const size_t memory = static_cast<size_t>(Scaled(1200));
  const uint64_t records = Scaled(48000);
  const int seeds = 3;
  printf("== Tables 5.2 / 5.3: ANOVA for random input ==\n");
  printf("memory = %zu, input = %llu records, %d seeds (%d observations)\n\n",
         memory, static_cast<unsigned long long>(records), seeds,
         kBufferSetupLevels * kNumBufferSizeLevels * kNumInputHeuristics *
             kNumOutputHeuristics * seeds);

  const std::vector<Observation> obs =
      RunFactorial(Dataset::kRandom, memory, records, seeds);

  printf("-- Table 5.2: model with all main factors --\n");
  const std::vector<AnovaTerm> full = {{{0}}, {{1}}, {{2}}, {{3}}};
  AnovaResult full_result;
  CheckOk(FitAnova(obs, kLevels, full, &full_result), "anova full");
  PrintAnovaTable(full_result, full, kFactorNames);

  printf("\n-- Table 5.3: reduced model, buffer size only --\n");
  const std::vector<AnovaTerm> reduced = {{{1}}};
  AnovaResult reduced_result;
  CheckOk(FitAnova(obs, kLevels, reduced, &reduced_result), "anova reduced");
  PrintAnovaTable(reduced_result, reduced, kFactorNames);

  printf(
      "\nExpected shape (paper): buffer size has an F several orders of\n"
      "magnitude above the other factors; dropping the others leaves R^2\n"
      "essentially unchanged (the reduced model is the accepted one).\n");
  printf("F(buffer size) / max F(other factors) = %.1f\n",
         full_result.rows[1].f /
             std::max({full_result.rows[0].f, full_result.rows[2].f,
                       full_result.rows[3].f}));
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
