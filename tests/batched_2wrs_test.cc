#include "core/batched_two_way_replacement_selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "core/record_source.h"
#include "core/run_sink.h"
#include "merge/external_sorter.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::Drain;
using testing::ExpectValidRuns;
using testing::GenerateRuns;
using testing::LedgerSink;
using testing::LedgerSource;
using testing::MemoryLedger;

std::vector<Key> Workload(Dataset dataset, uint64_t records, uint64_t seed) {
  WorkloadOptions wl;
  wl.num_records = records;
  wl.seed = seed;
  return Drain(MakeWorkload(dataset, wl).get());
}

struct Checked {
  std::vector<std::vector<Key>> runs;
  RunGenStats stats;
  uint64_t max_held = 0;
  uint64_t peak_arena_keys = 0;
};

// Generates runs through the ledger wrappers into a CollectingRunSink,
// which checks each stream's order, then checks the runs themselves.
Checked GenerateChecked(const TwoWayOptions& options,
                        const std::vector<Key>& input) {
  BatchedTwoWayReplacementSelection generator(options);
  VectorSource base_source(input);
  MemoryLedger ledger(options.memory_records);
  LedgerSource source(&base_source, &ledger);
  CollectingRunSink collecting;
  LedgerSink sink(&collecting, &ledger);
  Checked out;
  const Status s = generator.Generate(&source, &sink, &out.stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  out.runs = collecting.collected();
  out.max_held = ledger.max_held();
  out.peak_arena_keys = generator.peak_arena_keys();
  ExpectValidRuns(out.runs, input);
  EXPECT_EQ(out.stats.total_records, input.size());
  EXPECT_EQ(out.stats.num_runs(), out.runs.size());
  return out;
}

TEST(Batched2wrsTest, EmptyInputProducesNoRuns) {
  const Checked out = GenerateChecked(TwoWayOptions::Recommended(64), {});
  EXPECT_TRUE(out.runs.empty());
}

TEST(Batched2wrsTest, OneRecordIsOneRun) {
  const Checked out = GenerateChecked(TwoWayOptions::Recommended(64), {42});
  ASSERT_EQ(out.runs.size(), 1u);
  EXPECT_EQ(out.runs[0], std::vector<Key>({42}));
}

TEST(Batched2wrsTest, InputOfExactlyMemoryIsOneRun) {
  for (size_t memory : {3u, 16u, 100u, 1000u}) {
    const std::vector<Key> input =
        Workload(Dataset::kRandom, memory, /*seed=*/memory);
    const Checked out =
        GenerateChecked(TwoWayOptions::Recommended(memory), input);
    EXPECT_EQ(out.runs.size(), 1u) << memory;
    EXPECT_LE(out.max_held, memory);
  }
}

TEST(Batched2wrsTest, TinyMemoriesStayWithinBudget) {
  for (int dataset = 0; dataset < kNumDatasets; ++dataset) {
    const std::vector<Key> input =
        Workload(static_cast<Dataset>(dataset), 2000, /*seed=*/3);
    for (size_t memory = 3; memory <= 16; ++memory) {
      SCOPED_TRACE(::testing::Message()
                   << DatasetName(static_cast<Dataset>(dataset))
                   << " memory " << memory);
      GenerateChecked(TwoWayOptions::Recommended(memory), input);
    }
  }
}

// Batch geometries (memory / 64 records: 1, 7, 64), buffer setups and
// datasets: every run is sorted, each stream keeps its order, and memory
// holds at every read and emission.
using ConfigParam = std::tuple<int, size_t, int>;  // dataset, memory, buffers

class Batched2wrsConfigTest : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(Batched2wrsConfigTest, RunsAreSortedPartitionsWithinMemory) {
  const auto [dataset, memory, buffers] = GetParam();
  WorkloadOptions wl;
  wl.num_records = 30000;
  wl.seed = 29;
  wl.sections = 8;
  const std::vector<Key> input =
      Drain(MakeWorkload(static_cast<Dataset>(dataset), wl).get());
  TwoWayOptions options = TwoWayOptions::Recommended(memory, /*seed=*/4);
  options.use_input_buffer = buffers != 2;
  options.use_victim_buffer = buffers != 0;
  options.buffer_fraction = 0.05;
  GenerateChecked(options, input);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Batched2wrsConfigTest,
    ::testing::Combine(::testing::Range(0, kNumDatasets),
                       ::testing::Values(size_t{100}, size_t{480},
                                         size_t{4096}),
                       ::testing::Values(0, 1, 2)));  // no victim, both,
                                                      // victim only

TEST(Batched2wrsTest, FullRangeKeysSort) {
  Random rng(77);
  std::vector<Key> input = {std::numeric_limits<Key>::min(),
                            std::numeric_limits<Key>::max(), 0, -1};
  for (int i = 0; i < 20000; ++i) input.push_back(static_cast<Key>(rng.Next()));
  GenerateChecked(TwoWayOptions::Recommended(256), input);
}

TEST(Batched2wrsTest, StragglersDoNotPinTheirBatchBlocks) {
  // One straggler a batch, deferred to the next run (late) or held by the
  // TopHeap until the run ends (far ahead): each would pin its batch's
  // block, up to a batch of keys per record held, unless the arena
  // compacts. The key blocks stay within 2 x memory, plus one packed
  // block while they are compacted.
  constexpr size_t kMemory = 4096;
  const size_t batch = BatchedTwoWayReplacementSelection::BatchRecords(kMemory);
  for (Key offset : {Key{-40 * static_cast<Key>(kMemory)}, Key{1} << 50}) {
    SCOPED_TRACE(offset);
    const Checked out =
        GenerateChecked(TwoWayOptions::Recommended(kMemory),
                        testing::RisingWithStragglers(200000, batch, offset));
    EXPECT_GT(out.peak_arena_keys, kMemory / 2);
    EXPECT_LE(out.peak_arena_keys, 2 * kMemory + 2 * batch);
  }
}

TEST(Batched2wrsTest, VictimBufferAbsorbsGapRecords) {
  // The §4.5 shape: diverging trends leave a gap, and later records land
  // in it, closing in from both ends so each flush's range holds the next.
  std::vector<Key> input;
  for (int i = 0; i < 2000; ++i) {
    input.push_back(4000 - i);
    input.push_back(5000 + i);
    if (i % 50 == 49) {
      const int j = i / 50;
      input.push_back(j % 2 == 0 ? 4100 + 10 * j : 4900 - 10 * j);
    }
  }
  const Checked out = GenerateChecked(TwoWayOptions::Recommended(200), input);
  EXPECT_GT(out.stats.victim_records, 0u);
  TwoWayReplacementSelection reference(TwoWayOptions::Recommended(200));
  const auto ref = GenerateRuns(&reference, input);
  EXPECT_EQ(out.runs.size(), ref.runs.size());
  EXPECT_EQ(out.stats.victim_records, ref.stats.victim_records);
}

TEST(Batched2wrsTest, SameSeedIsDeterministic) {
  const std::vector<Key> input = Workload(Dataset::kRandom, 30000, 5);
  for (uint64_t seed : {1u, 2u}) {
    const Checked a =
        GenerateChecked(TwoWayOptions::Recommended(500, seed), input);
    const Checked b =
        GenerateChecked(TwoWayOptions::Recommended(500, seed), input);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.stats.victim_records, b.stats.victim_records);
    EXPECT_EQ(a.stats.victim_flushes, b.stats.victim_flushes);
  }
}

TEST(Batched2wrsTest, RunCountsTrackTheReference) {
  // §5's six families at small scale: the batched run count stays within
  // 5% of record-at-a-time 2WRS.
  constexpr size_t kMemory = 2048;
  for (int dataset = 0; dataset < kNumDatasets; ++dataset) {
    const std::vector<Key> input =
        Workload(static_cast<Dataset>(dataset), 200000, /*seed=*/1);
    TwoWayReplacementSelection reference(
        TwoWayOptions::Recommended(kMemory));
    const auto ref = GenerateRuns(&reference, input);
    const Checked batched =
        GenerateChecked(TwoWayOptions::Recommended(kMemory), input);
    const double ratio = static_cast<double>(batched.runs.size()) /
                         static_cast<double>(ref.runs.size());
    EXPECT_NEAR(ratio, 1.0, 0.05)
        << DatasetName(static_cast<Dataset>(dataset)) << ": "
        << batched.runs.size() << " vs " << ref.runs.size();
  }
}

TEST(Batched2wrsTest, RejectsOtherHeuristicPairsAndBadOptions) {
  VectorSource source({1, 2, 3});
  CollectingRunSink sink;
  TwoWayOptions options = TwoWayOptions::Recommended(64);
  options.output_heuristic = OutputHeuristic::kAlternate;
  EXPECT_TRUE(BatchedTwoWayReplacementSelection(options)
                  .Generate(&source, &sink, nullptr)
                  .IsInvalidArgument());
  options = TwoWayOptions::Recommended(64);
  options.input_heuristic = InputHeuristic::kMedian;
  EXPECT_TRUE(BatchedTwoWayReplacementSelection(options)
                  .Generate(&source, &sink, nullptr)
                  .IsInvalidArgument());
  EXPECT_FALSE(BatchedTwoWayReplacementSelection(TwoWayOptions::Recommended(2))
                   .Generate(&source, &sink, nullptr)
                   .ok());
}

TEST(Batched2wrsTest, EngineRunsBatchedOnlyForTheRecommendedPair) {
  const TwoWayOptions recommended = TwoWayOptions::Recommended(1000);
  std::unique_ptr<RunGenerator> generator = MakeRunGenerator(
      RunGenAlgorithm::kTwoWayReplacementSelection, 4096, recommended);
  auto* batched =
      dynamic_cast<BatchedTwoWayReplacementSelection*>(generator.get());
  ASSERT_NE(batched, nullptr);
  EXPECT_EQ(batched->options().memory_records, 4096u);

  for (int in_h = 0; in_h < kNumInputHeuristics; ++in_h) {
    for (int out_h = 0; out_h < kNumOutputHeuristics; ++out_h) {
      TwoWayOptions options = recommended;
      options.input_heuristic = static_cast<InputHeuristic>(in_h);
      options.output_heuristic = static_cast<OutputHeuristic>(out_h);
      generator = MakeRunGenerator(
          RunGenAlgorithm::kTwoWayReplacementSelection, 4096, options);
      const bool recommended_pair =
          options.input_heuristic == InputHeuristic::kMean &&
          options.output_heuristic == OutputHeuristic::kRandom;
      EXPECT_EQ(dynamic_cast<BatchedTwoWayReplacementSelection*>(
                    generator.get()) != nullptr,
                recommended_pair);
      EXPECT_EQ(
          dynamic_cast<TwoWayReplacementSelection*>(generator.get()) !=
              nullptr,
          !recommended_pair);
    }
  }
}

}  // namespace
}  // namespace twrs
