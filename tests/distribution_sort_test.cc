#include "distribution/distribution_sort.h"

#include <gtest/gtest.h>

#include "io/mem_env.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::ChecksumOf;
using testing::Drain;

DistributionSortOptions Options() {
  DistributionSortOptions options;
  options.memory_records = 100;
  options.num_buckets = 4;
  options.temp_dir = "tmp";
  options.block_bytes = 256;
  return options;
}

void ExpectSortsCorrectly(const std::vector<Key>& input,
                          const DistributionSortOptions& options,
                          DistributionSortStats* stats = nullptr) {
  MemEnv env;
  VectorSource source(input);
  ASSERT_TWRS_OK(DistributionSort(&env, &source, options, "out", stats));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_TRUE(testing::IsSortedAscending(keys));
  EXPECT_TRUE(ChecksumOf(keys) == ChecksumOf(input));
}

TEST(DistributionSortTest, EmptyInput) {
  ExpectSortsCorrectly({}, Options());
}

TEST(DistributionSortTest, SmallInputSingleInMemorySort) {
  DistributionSortStats stats;
  ExpectSortsCorrectly({5, 2, 9, 1}, Options(), &stats);
  EXPECT_EQ(stats.distribution_passes, 0u);
  EXPECT_EQ(stats.in_memory_sorts, 1u);
}

TEST(DistributionSortTest, LargeInputRequiresDistribution) {
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 4;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  DistributionSortStats stats;
  ExpectSortsCorrectly(input, Options(), &stats);
  EXPECT_GT(stats.distribution_passes, 0u);
  EXPECT_GT(stats.in_memory_sorts, 1u);
}

TEST(DistributionSortTest, PaperBucketExample) {
  // §2.2's example: {37, 2, 45, 22, 17, 12, 18, 23, 25, 42} with 5 buckets.
  DistributionSortOptions options = Options();
  options.num_buckets = 5;
  MemEnv env;
  VectorSource source({37, 2, 45, 22, 17, 12, 18, 23, 25, 42});
  ASSERT_TWRS_OK(DistributionSort(&env, &source, options, "out", nullptr));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys,
            std::vector<Key>({2, 12, 17, 18, 22, 23, 25, 37, 42, 45}));
}

TEST(DistributionSortTest, AllEqualKeysFallBackToMergesort) {
  // Heavy clustering: the range cannot be split, so the oversized bucket
  // must fall back to external mergesort instead of recursing forever.
  std::vector<Key> input(1000, 42);
  DistributionSortOptions options = Options();
  options.memory_records = 50;
  DistributionSortStats stats;
  ExpectSortsCorrectly(input, options, &stats);
  EXPECT_GT(stats.fallback_sorts, 0u);
}

TEST(DistributionSortTest, ClusteredInputRecursesDeeper) {
  // 90% of records in 1% of the range (the clustering hazard of §2.2).
  std::vector<Key> input;
  for (int i = 0; i < 2000; ++i) input.push_back(i % 20);
  for (int i = 0; i < 200; ++i) input.push_back(1000000 + i);
  DistributionSortOptions options = Options();
  options.memory_records = 64;
  DistributionSortStats stats;
  ExpectSortsCorrectly(input, options, &stats);
  EXPECT_GT(stats.max_depth_reached, 1u);
}

TEST(DistributionSortTest, NegativeKeysSupported) {
  std::vector<Key> input;
  for (int i = 0; i < 1000; ++i) input.push_back((i * 7919) % 997 - 500);
  ExpectSortsCorrectly(input, Options());
}

TEST(DistributionSortTest, EveryDatasetSortsCorrectly) {
  for (int d = 0; d < kNumDatasets; ++d) {
    WorkloadOptions wl;
    wl.num_records = 2000;
    wl.seed = 8;
    auto input = Drain(MakeWorkload(static_cast<Dataset>(d), wl).get());
    ExpectSortsCorrectly(input, Options());
  }
}

TEST(DistributionSortTest, SourceReadErrorFailsAndRemovesScratch) {
  MemEnv env;
  std::vector<Key> keys(500);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<Key>((i * 7919) % 1000);
  }
  testing::FailingSource source(keys, Status::IOError("read failed"));
  const Status s = DistributionSort(&env, &source, Options(), "out", nullptr);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // No sorted-but-truncated output, and no staging file left behind.
  EXPECT_FALSE(env.FileExists("out"));
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(DistributionSortTest, RejectsSingleBucket) {
  MemEnv env;
  VectorSource source({1});
  DistributionSortOptions options = Options();
  options.num_buckets = 1;
  EXPECT_TRUE(DistributionSort(&env, &source, options, "out", nullptr)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace twrs
