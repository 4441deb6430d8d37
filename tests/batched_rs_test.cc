#include "core/batched_replacement_selection.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/replacement_selection.h"
#include "core/run_sink.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::Drain;
using testing::ExpectValidRuns;
using testing::GenerateRuns;

std::unique_ptr<BatchedReplacementSelection> Make(size_t memory,
                                                  size_t batch) {
  BatchedReplacementSelectionOptions options;
  options.memory_records = memory;
  options.batch_records = batch;
  return std::make_unique<BatchedReplacementSelection>(options);
}

TEST(BatchedRsTest, RejectsBadOptions) {
  VectorSource source({1});
  CollectingRunSink sink;
  EXPECT_TRUE(
      Make(0, 1)->Generate(&source, &sink, nullptr).IsInvalidArgument());
  EXPECT_TRUE(
      Make(8, 0)->Generate(&source, &sink, nullptr).IsInvalidArgument());
  EXPECT_TRUE(
      Make(8, 16)->Generate(&source, &sink, nullptr).IsInvalidArgument());
}

TEST(BatchedRsTest, EmptyInputProducesNoRuns) {
  auto generator = Make(64, 8);
  auto result = GenerateRuns(generator.get(), {});
  EXPECT_TRUE(result.runs.empty());
}

TEST(BatchedRsTest, SmallInputSingleRun) {
  auto generator = Make(64, 8);
  auto result = GenerateRuns(generator.get(), {9, 1, 8, 2});
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0], std::vector<Key>({1, 2, 8, 9}));
}

TEST(BatchedRsTest, SortedInputIsOneRun) {
  std::vector<Key> input;
  for (int i = 0; i < 5000; ++i) input.push_back(i);
  auto generator = Make(100, 10);
  auto result = GenerateRuns(generator.get(), input);
  EXPECT_EQ(result.runs.size(), 1u);
  ExpectValidRuns(result.runs, input);
}

TEST(BatchedRsTest, ReverseSortedDegradesLikeRs) {
  std::vector<Key> input;
  for (int i = 5000; i > 0; --i) input.push_back(i);
  auto generator = Make(100, 10);
  auto result = GenerateRuns(generator.get(), input);
  ExpectValidRuns(result.runs, input);
  // Deferred batches carry whole-batch granularity, so runs are about the
  // memory size, as for RS (Theorem 3).
  const double relative = result.stats.AverageRunLengthRelative(100);
  EXPECT_GT(relative, 0.8);
  EXPECT_LT(relative, 1.3);
}

TEST(BatchedRsTest, RandomInputRunsAverageNearTwiceMemory) {
  WorkloadOptions wl;
  wl.num_records = 50000;
  wl.seed = 13;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  auto generator = Make(500, 50);
  auto result = GenerateRuns(generator.get(), input);
  ExpectValidRuns(result.runs, input);
  const double relative = result.stats.AverageRunLengthRelative(500);
  EXPECT_GT(relative, 1.6);
  EXPECT_LT(relative, 2.3);
}

TEST(BatchedRsTest, MatchesRsRunCountsApproximately) {
  WorkloadOptions wl;
  wl.num_records = 30000;
  wl.seed = 9;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ReplacementSelectionOptions rs_options;
  rs_options.memory_records = 300;
  ReplacementSelection rs(rs_options);
  auto rs_result = GenerateRuns(&rs, input);
  auto batched = Make(300, 30);
  auto batched_result = GenerateRuns(batched.get(), input);
  const double ratio = static_cast<double>(batched_result.runs.size()) /
                       static_cast<double>(rs_result.runs.size());
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.4);
}

// A source that fails the test on any read of more than `batch` records,
// such as Next's read-ahead: the generator must read a batch at a time.
class BatchOnlySource : public VectorSource {
 public:
  BatchOnlySource(std::vector<Key> keys, size_t batch)
      : VectorSource(std::move(keys)), batch_(batch) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    if (cap > batch_) {
      ADD_FAILURE() << "a read of " << cap << " records outside a batch";
    }
    return VectorSource::ReadSome(out, cap, n);
  }

 private:
  size_t batch_;
};

TEST(BatchedRsTest, ReadsInBatchesWithinMemory) {
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 3;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (size_t batch : {1u, 7u, 50u, 200u}) {
    BatchOnlySource base(input, batch);
    testing::MemoryLedger ledger(200);
    testing::LedgerSource source(&base, &ledger);
    CollectingRunSink collecting;
    testing::LedgerSink sink(&collecting, &ledger);
    ASSERT_TWRS_OK(Make(200, batch)->Generate(&source, &sink, nullptr));
    ExpectValidRuns(collecting.collected(), input);
    EXPECT_EQ(ledger.max_held(), 200u) << batch;
  }
}

TEST(BatchedRsTest, StragglersDoNotPinTheirBatchBlocks) {
  // One straggler a batch, deferred to the next run (late) or held by the
  // current run until it ends (far ahead): each would pin its batch's
  // block, a batch of keys per record held, unless the arena compacts.
  // The key blocks stay within 2 x memory, plus one packed block while
  // they are compacted.
  constexpr size_t kMemory = 4096;
  for (size_t batch : {64u, 1024u}) {
    for (Key offset : {Key{-40 * static_cast<Key>(kMemory)}, Key{1} << 50}) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch << " offset "
                                        << offset);
      const std::vector<Key> input =
          testing::RisingWithStragglers(200000, batch, offset);
      auto generator = Make(kMemory, batch);
      const auto result = GenerateRuns(generator.get(), input);
      ExpectValidRuns(result.runs, input);
      EXPECT_GT(generator->peak_arena_keys(), kMemory / 2);
      EXPECT_LE(generator->peak_arena_keys(), 2 * kMemory + 2 * batch);
    }
  }
}

// Correctness must hold across datasets and batch geometries.
using BatchedParam = std::tuple<int, int>;  // dataset, batch size

class BatchedRsPropertyTest : public ::testing::TestWithParam<BatchedParam> {};

TEST_P(BatchedRsPropertyTest, RunsAreSortedPartitions) {
  const auto [dataset, batch] = GetParam();
  WorkloadOptions wl;
  wl.num_records = 6000;
  wl.seed = 23;
  wl.sections = 6;
  auto input = Drain(MakeWorkload(static_cast<Dataset>(dataset), wl).get());
  auto generator = Make(240, static_cast<size_t>(batch));
  auto result = GenerateRuns(generator.get(), input);
  ExpectValidRuns(result.runs, input);
  EXPECT_EQ(result.stats.total_records, input.size());
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndBatches, BatchedRsPropertyTest,
    ::testing::Combine(::testing::Range(0, kNumDatasets),
                       ::testing::Values(1, 7, 60, 240)));

}  // namespace
}  // namespace twrs
