#include "shard/sharded_sorter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "exec/executor.h"
#include "io/mem_env.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::ChecksumOf;
using testing::Drain;

TEST(ReservoirSamplerTest, SmallStreamsAreKeptWhole) {
  ReservoirSampler sampler(10, 1);
  for (Key k = 0; k < 5; ++k) sampler.Add(k);
  EXPECT_EQ(sampler.seen(), 5u);
  EXPECT_EQ(sampler.sample(), (std::vector<Key>{0, 1, 2, 3, 4}));
}

TEST(ReservoirSamplerTest, CapacityBoundsTheSample) {
  ReservoirSampler sampler(16, 7);
  for (Key k = 0; k < 10000; ++k) sampler.Add(k);
  EXPECT_EQ(sampler.seen(), 10000u);
  ASSERT_EQ(sampler.sample().size(), 16u);
  for (Key k : sampler.sample()) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 10000);
  }
  // A uniform sample of a uniform stream should not cluster in one half.
  const size_t low = static_cast<size_t>(
      std::count_if(sampler.sample().begin(), sampler.sample().end(),
                    [](Key k) { return k < 5000; }));
  EXPECT_GT(low, 0u);
  EXPECT_LT(low, 16u);
}

TEST(ReservoirSamplerTest, DeterministicForAFixedSeed) {
  ReservoirSampler a(8, 42), b(8, 42), c(8, 43);
  for (Key k = 0; k < 1000; ++k) {
    a.Add(k);
    b.Add(k);
    c.Add(k);
  }
  EXPECT_EQ(a.sample(), b.sample());
  EXPECT_NE(a.sample(), c.sample());
}

TEST(PickSplittersTest, QuantilesOfAUniformSample) {
  std::vector<Key> sample;
  for (Key k = 1; k <= 100; ++k) sample.push_back(k);
  const std::vector<Key> splitters = PickSplitters(sample, 4);
  ASSERT_EQ(splitters.size(), 3u);
  EXPECT_TRUE(std::is_sorted(splitters.begin(), splitters.end()));
  // Near the 25/50/75 percentiles.
  EXPECT_NEAR(static_cast<double>(splitters[0]), 25.0, 2.0);
  EXPECT_NEAR(static_cast<double>(splitters[1]), 50.0, 2.0);
  EXPECT_NEAR(static_cast<double>(splitters[2]), 75.0, 2.0);
}

TEST(PickSplittersTest, DegenerateInputs) {
  EXPECT_TRUE(PickSplitters({1, 2, 3}, 1).empty());
  EXPECT_TRUE(PickSplitters({}, 4).empty());
}

TEST(PickSplittersTest, DuplicateHeavySamplesCollapse) {
  // An all-equal sample cannot be split: one splitter survives dedup.
  std::vector<Key> all_equal(64, 7);
  EXPECT_EQ(PickSplitters(all_equal, 8).size(), 1u);
  // 90% one value: most quantiles coincide, so fewer distinct splitters.
  std::vector<Key> skewed(90, 5);
  for (Key k = 0; k < 10; ++k) skewed.push_back(100 + k);
  const std::vector<Key> splitters = PickSplitters(skewed, 8);
  EXPECT_LT(splitters.size(), 7u);
  EXPECT_TRUE(std::is_sorted(splitters.begin(), splitters.end()));
  const std::set<Key> unique(splitters.begin(), splitters.end());
  EXPECT_EQ(unique.size(), splitters.size());
}

ShardedSortOptions BaseOptions(size_t shards) {
  ShardedSortOptions options;
  options.shards = shards;
  options.sample_size = 256;
  options.sort.memory_records = 128;
  options.sort.twrs = TwoWayOptions::Recommended(128, 3);
  options.sort.fan_in = 4;
  options.sort.temp_dir = "tmp";
  options.sort.block_bytes = 512;
  return options;
}

void ExpectSortsCorrectly(const std::vector<Key>& input, size_t shards,
                          ShardedSortResult* out_result = nullptr) {
  MemEnv env;
  ShardedSorter sorter(&env, BaseOptions(shards));
  VectorSource source(input);
  ShardedSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));

  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == ChecksumOf(input));
  EXPECT_EQ(result.input_records, input.size());
  EXPECT_EQ(result.output_records, input.size());
  uint64_t routed = 0;
  for (uint64_t n : result.shard_records) routed += n;
  EXPECT_EQ(routed, input.size());
  EXPECT_EQ(env.FileCount(), 1u);  // all scratch files cleaned up
  if (out_result != nullptr) *out_result = result;
}

TEST(ShardedSorterTest, RejectsZeroShards) {
  MemEnv env;
  ShardedSorter sorter(&env, BaseOptions(0));
  VectorSource source({1, 2, 3});
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsInvalidArgument());
}

TEST(ShardedSorterTest, RejectsZeroSampleSize) {
  MemEnv env;
  ShardedSortOptions options = BaseOptions(2);
  options.sample_size = 0;
  ShardedSorter sorter(&env, options);
  VectorSource source({1, 2, 3});
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsInvalidArgument());
}

TEST(ShardedSorterTest, EmptyInput) {
  ExpectSortsCorrectly({}, 4);
}

TEST(ShardedSorterTest, SingleRecord) {
  ExpectSortsCorrectly({42}, 4);
}

TEST(ShardedSorterTest, OneShardDegeneratesToPlainSort) {
  WorkloadOptions wl;
  wl.num_records = 3000;
  wl.seed = 21;
  ShardedSortResult result;
  ExpectSortsCorrectly(Drain(MakeWorkload(Dataset::kRandom, wl).get()), 1,
                       &result);
  EXPECT_TRUE(result.splitters.empty());
  ASSERT_EQ(result.shard_records.size(), 1u);
  EXPECT_EQ(result.shard_records[0], 3000u);
}

TEST(ShardedSorterTest, RandomInputAcrossShardCounts) {
  WorkloadOptions wl;
  wl.num_records = 10000;
  wl.seed = 31;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (size_t shards : {2u, 3u, 8u}) {
    SCOPED_TRACE(shards);
    ShardedSortResult result;
    ExpectSortsCorrectly(input, shards, &result);
    EXPECT_EQ(result.shard_records.size(), result.splitters.size() + 1);
    // A 256-key sample of 10k uniform keys yields distinct quantiles.
    EXPECT_EQ(result.splitters.size(), shards - 1);
  }
}

TEST(ShardedSorterTest, DuplicateKeysStayInOneShard) {
  // Keys concentrated on a handful of values: every duplicate class must
  // be routed to exactly one shard or the concatenated output interleaves.
  std::vector<Key> input;
  Random rng(77);
  for (int i = 0; i < 8000; ++i) {
    input.push_back(static_cast<Key>(rng.Uniform(5)) * 100);
  }
  ShardedSortResult result;
  ExpectSortsCorrectly(input, 4, &result);
  EXPECT_LE(result.splitters.size(), 3u);
}

TEST(ShardedSorterTest, SkewedInputCollapsesSplitters) {
  // 95% of the keys are one value; the sorter must still be correct with
  // most shards empty.
  std::vector<Key> input(9500, 1000);
  Random rng(5);
  for (int i = 0; i < 500; ++i) {
    input.push_back(static_cast<Key>(rng.Uniform(1000000)));
  }
  ShardedSortResult result;
  ExpectSortsCorrectly(input, 8, &result);
  EXPECT_LT(result.splitters.size(), 7u);
}

TEST(ShardedSorterTest, SortedAndReverseInputs) {
  WorkloadOptions wl;
  wl.num_records = 6000;
  wl.seed = 9;
  ExpectSortsCorrectly(Drain(MakeWorkload(Dataset::kSorted, wl).get()), 4);
  ExpectSortsCorrectly(Drain(MakeWorkload(Dataset::kReverseSorted, wl).get()),
                       4);
}

// The acceptance criterion: sharded output must be byte-identical to the
// serial ExternalSorter's output for the same input.
TEST(ShardedSorterTest, OutputIsByteIdenticalToSerialExternalSorter) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 42;
  wl.sections = 16;
  const auto input = Drain(MakeWorkload(Dataset::kAlternating, wl).get());

  ShardedSortOptions sharded_options = BaseOptions(4);
  sharded_options.sort.parallel.worker_threads = 4;
  sharded_options.sort.parallel.prefetch_blocks = 2;
  {
    ShardedSorter sorter(&env, sharded_options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_sharded", nullptr));
  }
  {
    ExternalSortOptions serial = BaseOptions(1).sort;  // fully serial
    ExternalSorter sorter(&env, serial);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_serial", nullptr));
  }

  const std::vector<uint8_t>* sharded_bytes = env.FileContents("out_sharded");
  const std::vector<uint8_t>* serial_bytes = env.FileContents("out_serial");
  ASSERT_NE(sharded_bytes, nullptr);
  ASSERT_NE(serial_bytes, nullptr);
  EXPECT_TRUE(*sharded_bytes == *serial_bytes);
  EXPECT_EQ(sharded_bytes->size(), input.size() * kRecordBytes);
}

TEST(ShardedSorterTest, SortFileMatchesSortOfSameData) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 8000;
  wl.seed = 13;
  const auto input = Drain(MakeWorkload(Dataset::kMixed, wl).get());
  ASSERT_TWRS_OK(WriteAllRecords(&env, "input", input));

  ShardedSorter sorter(&env, BaseOptions(4));
  ShardedSortResult result;
  ASSERT_TWRS_OK(sorter.SortFile("input", "out", &result));
  EXPECT_EQ(result.input_records, input.size());

  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == ChecksumOf(input));
  EXPECT_TRUE(env.FileExists("input"));  // input left intact
  EXPECT_EQ(env.FileCount(), 2u);        // input + output only
}

TEST(ShardedSorterTest, ShardsShareACallerProvidedExecutor) {
  MemEnv env;
  ExecutorOptions exec_options;
  exec_options.capacity = 2;
  Executor executor(exec_options);

  WorkloadOptions wl;
  wl.num_records = 9000;
  wl.seed = 3;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  ShardedSortOptions options = BaseOptions(4);
  options.executor = &executor;
  options.sort.parallel.worker_threads = 2;
  ShardedSorter sorter(&env, options);
  VectorSource source(input);
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));

  // The shard tasks and the per-shard pipelines all borrowed the one pool.
  EXPECT_EQ(executor.pool_count(), 1u);
  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == ChecksumOf(input));
}

// Per-shard sorts that fail partway have already written run files into
// their nested scratch directories; the unwind must remove all of it,
// not just the top-level shard files.
TEST(ShardedSorterTest, PerShardFailureLeavesNoOrphanedScratch) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 8000;
  wl.seed = 17;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ASSERT_TWRS_OK(WriteAllRecords(&env, "in", input));

  ShardedSortOptions options = BaseOptions(3);
  options.sort.fan_in = 1;  // poison: every per-shard merge fails
  ShardedSorter sorter(&env, options);
  EXPECT_TRUE(sorter.SortFile("in", "out", nullptr).IsInvalidArgument());
  // Only the input survives: shard files, per-shard run files and any
  // partial output are gone.
  EXPECT_EQ(env.FileCount(), 1u);
  EXPECT_TRUE(env.FileExists("in"));
}

TEST(ShardedSorterTest, PreCancelledSortWritesNothing) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 18;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ASSERT_TWRS_OK(WriteAllRecords(&env, "in", input));

  CancelToken token;
  token.Cancel();
  ShardedSortOptions options = BaseOptions(2);
  options.sort.cancel = &token;
  ShardedSorter sorter(&env, options);
  EXPECT_TRUE(sorter.SortFile("in", "out", nullptr).IsCancelled());
  EXPECT_EQ(env.FileCount(), 1u);  // the input
}

TEST(ShardedSorterTest, StagingReadErrorFailsTheSort) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 18;
  // The read fails after more than one staging batch was written.
  testing::FailingSource source(
      Drain(MakeWorkload(Dataset::kRandom, wl).get()),
      Status::IOError("injected read error"));
  ShardedSorter sorter(&env, BaseOptions(2));
  const Status status = sorter.Sort(&source, "out", nullptr);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(env.FileCount(), 0u);  // no staged input, no partial output
}

TEST(ShardedSorterTest, CancelMidStagingWritesNothing) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 18;
  CancelToken token;
  ShardedSortOptions options = BaseOptions(2);
  options.sort.cancel = &token;
  ShardedSorter sorter(&env, options);
  // Fires after two full staging batches and part of a third.
  testing::CancelAfterNSource source(
      Drain(MakeWorkload(Dataset::kRandom, wl).get()), 2500, &token);
  const Status status = sorter.Sort(&source, "out", nullptr);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ShardedSorterTest, ReportsIoVolumeAcrossAllPasses) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 6000;
  wl.seed = 19;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ASSERT_TWRS_OK(WriteAllRecords(&env, "in", input));

  ShardedSorter sorter(&env, BaseOptions(3));
  ShardedSortResult result;
  ASSERT_TWRS_OK(sorter.SortFile("in", "out", &result));

  const uint64_t input_bytes = input.size() * kRecordBytes;
  // Partition files, per-shard runs, sorted shards and the output each
  // rewrite the data once: at least 3x input out, 2x back in (sampling
  // pass included).
  EXPECT_GE(result.bytes_written, 3 * input_bytes);
  EXPECT_GE(result.bytes_read, 2 * input_bytes);
  // And the per-shard breakdowns carry their own counters.
  uint64_t shard_written = 0;
  for (const ExternalSortResult& r : result.shard_results) {
    shard_written += r.bytes_written;
  }
  EXPECT_GT(shard_written, 0u);
  EXPECT_LE(shard_written, result.bytes_written);
}

TEST(ShardedSorterTest, DirectRangeWritesDoNotDoubleCountTheOutput) {
  // With Load-Sort-Store runs (forward record files only — no reverse-file
  // page padding), every byte the sharded sort writes is accountable:
  // partition files + run files + the output, each exactly once. The old
  // concatenation pass added a fourth full write (per-shard sorted files)
  // plus one more read of the whole output; its removal must show up in
  // the counters, not just the wall clock.
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 6000;
  wl.seed = 23;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ASSERT_TWRS_OK(WriteAllRecords(&env, "in", input));

  ShardedSortOptions options = BaseOptions(3);
  options.sort.algorithm = RunGenAlgorithm::kLoadSortStore;
  options.sort.memory_records = 1024;  // few runs, single merge pass
  ShardedSorter sorter(&env, options);
  ShardedSortResult result;
  ASSERT_TWRS_OK(sorter.SortFile("in", "out", &result));

  const uint64_t input_bytes = input.size() * kRecordBytes;
  // Writes: partition + runs + output = exactly 3x (was 4x with concat).
  EXPECT_EQ(result.bytes_written, 3 * input_bytes);
  // Reads: sampling + partition + run generation + final merge = 4x (the
  // concat pass used to re-read the whole output for a 5th).
  EXPECT_EQ(result.bytes_read, 4 * input_bytes);

  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == ChecksumOf(input));
}

TEST(ShardedSorterTest, PartitionedFinalMergesInsideShardsStayByteIdentical) {
  // Compose the two new paths: shards write their output ranges directly
  // AND each shard's final merge is itself partitioned. The bytes must
  // still match the plain serial sorter.
  WorkloadOptions wl;
  wl.num_records = 40000;
  wl.seed = 29;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  MemEnv env;
  std::vector<uint8_t> expect;
  {
    ExternalSortOptions serial;
    serial.memory_records = 2048;
    serial.twrs = TwoWayOptions::Recommended(2048, 3);
    serial.fan_in = 4;
    serial.temp_dir = "tmp";
    serial.block_bytes = 512;
    ExternalSorter sorter(&env, serial);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_serial", nullptr));
    ASSERT_NE(env.FileContents("out_serial"), nullptr);
    expect = *env.FileContents("out_serial");
  }

  ShardedSortOptions options = BaseOptions(3);
  options.sort.memory_records = 2048;
  options.sort.twrs = TwoWayOptions::Recommended(2048, 3);
  options.sort.parallel.worker_threads = 4;
  options.sort.parallel.final_merge_threads = 4;
  ShardedSorter sorter(&env, options);
  VectorSource source(input);
  ShardedSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out_sharded", &result));
  ASSERT_NE(env.FileContents("out_sharded"), nullptr);
  EXPECT_EQ(*env.FileContents("out_sharded"), expect);
  EXPECT_EQ(result.output_records, input.size());
}

}  // namespace
}  // namespace twrs
