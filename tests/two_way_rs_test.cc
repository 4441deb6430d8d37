#include "core/two_way_replacement_selection.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <tuple>

#include "core/record_source.h"
#include "core/run_sink.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::Drain;
using testing::ExpectValidRuns;
using testing::GenerateRuns;

TwoWayOptions BaseOptions(size_t memory) {
  TwoWayOptions options = TwoWayOptions::Recommended(memory, /*seed=*/7);
  return options;
}

TEST(TwoWayOptionsTest, RecommendedConfiguration) {
  TwoWayOptions options = TwoWayOptions::Recommended(10000);
  EXPECT_EQ(options.memory_records, 10000u);
  EXPECT_TRUE(options.use_input_buffer);
  EXPECT_TRUE(options.use_victim_buffer);
  EXPECT_EQ(options.input_heuristic, InputHeuristic::kMean);
  EXPECT_EQ(options.output_heuristic, OutputHeuristic::kRandom);
  EXPECT_DOUBLE_EQ(options.buffer_fraction, 0.02);
  ASSERT_TWRS_OK(options.Validate());
  // 2% of 10000 = 200 buffer records, split evenly.
  EXPECT_EQ(options.TotalBufferRecords(), 200u);
  EXPECT_EQ(options.InputBufferRecords(), 100u);
  EXPECT_EQ(options.VictimBufferRecords(), 100u);
  EXPECT_EQ(options.HeapRecords(), 9800u);
}

TEST(TwoWayOptionsTest, SingleBufferTakesWholeAllocation) {
  TwoWayOptions options = BaseOptions(1000);
  options.use_input_buffer = false;
  EXPECT_EQ(options.InputBufferRecords(), 0u);
  EXPECT_EQ(options.VictimBufferRecords(), 20u);
  options.use_input_buffer = true;
  options.use_victim_buffer = false;
  EXPECT_EQ(options.InputBufferRecords(), 20u);
  EXPECT_EQ(options.VictimBufferRecords(), 0u);
}

TEST(TwoWayOptionsTest, NoBuffersMeansAllMemoryForHeaps) {
  TwoWayOptions options = BaseOptions(1000);
  options.use_input_buffer = false;
  options.use_victim_buffer = false;
  EXPECT_EQ(options.TotalBufferRecords(), 0u);
  EXPECT_EQ(options.HeapRecords(), 1000u);
}

TEST(TwoWayOptionsTest, EnabledBuffersGetAtLeastOneRecord) {
  TwoWayOptions options = BaseOptions(1000);
  options.buffer_fraction = 0.0002;  // rounds to 0 records
  EXPECT_GE(options.TotalBufferRecords(), 2u);
  EXPECT_GE(options.InputBufferRecords(), 1u);
  EXPECT_GE(options.VictimBufferRecords(), 1u);
}

TEST(TwoWayOptionsTest, ValidationCatchesBadConfigs) {
  TwoWayOptions options = BaseOptions(2);
  EXPECT_FALSE(options.Validate().ok());
  options = BaseOptions(1000);
  options.buffer_fraction = 1.5;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TwoWayRsTest, EmptyInputProducesNoRuns) {
  TwoWayReplacementSelection twrs(BaseOptions(100));
  auto result = GenerateRuns(&twrs, {});
  EXPECT_TRUE(result.runs.empty());
}

TEST(TwoWayRsTest, SmallInputSingleSortedRun) {
  TwoWayReplacementSelection twrs(BaseOptions(100));
  auto result = GenerateRuns(&twrs, {9, 1, 8, 2, 7, 3});
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0], std::vector<Key>({1, 2, 3, 7, 8, 9}));
}

TEST(TwoWayRsTest, PaperWorkedExampleInput) {
  // §4.5's diverging input: descending 40,39,38,... interleaved with
  // ascending 50,51,52,... 2WRS should capture both trends in one run.
  std::vector<Key> input;
  for (int i = 0; i < 200; ++i) {
    input.push_back(40 - i);
    input.push_back(50 + i);
  }
  TwoWayOptions options = BaseOptions(22);
  options.buffer_fraction = 0.4;  // ~4 input + 4 victim, 14 heap (as §4.5)
  TwoWayReplacementSelection twrs(options);
  auto result = GenerateRuns(&twrs, input);
  ExpectValidRuns(result.runs, input);
  EXPECT_LE(result.runs.size(), 2u);
}

TEST(TwoWayRsTest, VictimBufferAbsorbsGapRecords) {
  // Diverging trends leave a gap; records landing inside it (44 in the
  // §4.5 example) must be absorbed by the victim buffer.
  std::vector<Key> input;
  for (int i = 0; i < 100; ++i) {
    input.push_back(40 - i);
    input.push_back(50 + i);
    if (i == 18) input.push_back(44);
  }
  TwoWayOptions options = BaseOptions(22);
  options.buffer_fraction = 0.4;
  TwoWayReplacementSelection twrs(options);
  VectorSource source(input);
  CollectingRunSink sink;
  RunGenStats stats;
  ASSERT_TWRS_OK(twrs.Generate(&source, &sink, &stats));
  ExpectValidRuns(sink.collected(), input);
  EXPECT_GT(stats.victim_records, 0u);
}

TEST(TwoWayRsTest, DivertRuleKeepsRandomHeuristicCorrect) {
  // The Random input heuristic scatters records across both heaps; the
  // divert rule must still deliver sorted runs.
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 11;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  TwoWayOptions options = BaseOptions(128);
  options.input_heuristic = InputHeuristic::kRandom;
  options.output_heuristic = OutputHeuristic::kRandom;
  TwoWayReplacementSelection twrs(options);
  auto result = GenerateRuns(&twrs, input);
  ExpectValidRuns(result.runs, input);
}

TEST(TwoWayRsTest, SameSeedIsDeterministic) {
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 5;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  TwoWayReplacementSelection a(BaseOptions(100));
  TwoWayReplacementSelection b(BaseOptions(100));
  auto ra = GenerateRuns(&a, input);
  auto rb = GenerateRuns(&b, input);
  EXPECT_EQ(ra.runs, rb.runs);
}

TEST(TwoWayRsTest, StatsCountersAreConsistent) {
  WorkloadOptions wl;
  wl.num_records = 4000;
  wl.seed = 9;
  auto input = Drain(MakeWorkload(Dataset::kMixed, wl).get());
  TwoWayReplacementSelection twrs(BaseOptions(200));
  VectorSource source(input);
  CollectingRunSink sink;
  RunGenStats stats;
  ASSERT_TWRS_OK(twrs.Generate(&source, &sink, &stats));
  EXPECT_EQ(stats.total_records, input.size());
  EXPECT_EQ(stats.num_runs(), sink.collected().size());
  EXPECT_GT(stats.victim_records, 0u);  // mixed input exercises the victim
}

TEST(TwoWayRsTest, FullRangeKeysSortUnderEveryOutputHeuristic) {
  // Keys spread over all of int64, extremes included, so gap widths and
  // MinDistance's distances exceed INT64_MAX (the UBSan build checks that
  // none of them overflows).
  Random rng(31);
  std::vector<Key> input = {std::numeric_limits<Key>::min(),
                            std::numeric_limits<Key>::max(), 0, -1};
  for (int i = 0; i < 4000; ++i) input.push_back(static_cast<Key>(rng.Next()));
  for (int out_h = 0; out_h < kNumOutputHeuristics; ++out_h) {
    TwoWayOptions options = BaseOptions(64);
    options.output_heuristic = static_cast<OutputHeuristic>(out_h);
    TwoWayReplacementSelection twrs(options);
    auto result = GenerateRuns(&twrs, input);
    ExpectValidRuns(result.runs, input);
    EXPECT_EQ(result.stats.total_records, input.size());
  }
}

// Every combination of input heuristic, output heuristic, buffer setup and
// dataset must produce sorted runs that partition the input — the paper's
// 2160-configuration factorial experiment relies on all of them being
// correct (§5.2).
using ConfigParam = std::tuple<int, int, int, int>;  // in, out, buffers, ds

class TwoWayConfigTest : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(TwoWayConfigTest, RunsAreSortedPartitions) {
  const auto [in_h, out_h, buffers, dataset] = GetParam();
  WorkloadOptions wl;
  wl.num_records = 3000;
  wl.seed = 21;
  wl.sections = 10;
  auto input = Drain(MakeWorkload(static_cast<Dataset>(dataset), wl).get());

  TwoWayOptions options = BaseOptions(150);
  options.input_heuristic = static_cast<InputHeuristic>(in_h);
  options.output_heuristic = static_cast<OutputHeuristic>(out_h);
  options.use_input_buffer = buffers == 0 || buffers == 1;
  options.use_victim_buffer = buffers == 1 || buffers == 2;
  TwoWayReplacementSelection twrs(options);
  auto result = GenerateRuns(&twrs, input);
  ExpectValidRuns(result.runs, input);
  EXPECT_EQ(result.stats.total_records, input.size());
}

INSTANTIATE_TEST_SUITE_P(
    HeuristicSweep, TwoWayConfigTest,
    ::testing::Combine(::testing::Range(0, kNumInputHeuristics),
                       ::testing::Range(0, kNumOutputHeuristics),
                       ::testing::Values(1),  // both buffers
                       ::testing::Values(static_cast<int>(Dataset::kRandom),
                                         static_cast<int>(Dataset::kMixed))));

INSTANTIATE_TEST_SUITE_P(
    BufferSetupSweep, TwoWayConfigTest,
    ::testing::Combine(::testing::Values(static_cast<int>(InputHeuristic::kMean)),
                       ::testing::Values(static_cast<int>(OutputHeuristic::kRandom)),
                       ::testing::Values(0, 1, 2),  // input only, both, victim only
                       ::testing::Range(0, kNumDatasets)));

}  // namespace
}  // namespace twrs
