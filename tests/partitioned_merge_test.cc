#include "merge/partitioned_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/record_source.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "io/counting_env.h"
#include "io/env_wrapper.h"
#include "io/mem_env.h"
#include "io/record_io.h"
#include "io/reverse_run_file.h"
#include "merge/external_sorter.h"
#include "merge/kway_merge.h"
#include "merge/merge_plan.h"
#include "merge/splitters.h"
#include "tests/test_util.h"
#include "util/cancel.h"
#include "util/random.h"

namespace twrs {
namespace {

RunInfo WriteForwardRun(Env* env, const std::string& path,
                        const std::vector<Key>& sorted_keys) {
  Status s = WriteAllRecords(env, path, sorted_keys);
  EXPECT_TRUE(s.ok()) << s.ToString();
  RunInfo run;
  RunSegment seg;
  seg.path = path;
  seg.count = sorted_keys.size();
  run.segments.push_back(std::move(seg));
  run.length = sorted_keys.size();
  if (!sorted_keys.empty()) {
    run.min_key = sorted_keys.front();
    run.max_key = sorted_keys.back();
  }
  return run;
}

/// A run whose low half is an Appendix-A reverse segment and whose high
/// half is a forward record file — the shape 2WRS runs reach the final
/// merge in.
RunInfo WriteMixedRun(Env* env, const std::string& base,
                      const std::vector<Key>& sorted_keys) {
  const size_t half = sorted_keys.size() / 2;
  RunInfo run;
  {
    ReverseRunFileOptions reverse_options;
    reverse_options.page_bytes = 256;  // several files, partial pages
    reverse_options.pages_per_file = 4;
    ReverseRunWriter writer(env, base + "_rev", reverse_options);
    EXPECT_TRUE(writer.status().ok());
    for (size_t i = half; i > 0; --i) {  // non-increasing order
      Status s = writer.Append(sorted_keys[i - 1]);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    Status s = writer.Finish();
    EXPECT_TRUE(s.ok()) << s.ToString();
    RunSegment seg;
    seg.path = base + "_rev";
    seg.reverse = true;
    seg.count = half;
    seg.num_files = writer.num_files();
    run.segments.push_back(std::move(seg));
  }
  {
    std::vector<Key> high(sorted_keys.begin() + half, sorted_keys.end());
    Status s = WriteAllRecords(env, base + "_fwd", high);
    EXPECT_TRUE(s.ok()) << s.ToString();
    RunSegment seg;
    seg.path = base + "_fwd";
    seg.count = high.size();
    run.segments.push_back(std::move(seg));
  }
  run.length = sorted_keys.size();
  if (!sorted_keys.empty()) {
    run.min_key = sorted_keys.front();
    run.max_key = sorted_keys.back();
  }
  return run;
}

std::vector<Key> SortedRandomKeys(size_t n, uint64_t seed, Key range) {
  Random rng(seed);
  std::vector<Key> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<Key>(rng.Uniform(range)));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ------------------------------------------------- PartitionPointsForRun

TEST(PartitionPointsTest, MatchesBruteForceOnMixedRun) {
  MemEnv env;
  std::vector<Key> keys = SortedRandomKeys(5000, 7, 1000);  // duplicate-rich
  RunInfo run = WriteMixedRun(&env, "run", keys);

  const std::vector<Key> splitters = {0, 13, 500, 501, 999};
  std::vector<uint64_t> below;
  ASSERT_TWRS_OK(PartitionPointsForRun(&env, run, splitters, 256, &below));
  ASSERT_EQ(below.size(), splitters.size());
  for (size_t s = 0; s < splitters.size(); ++s) {
    const uint64_t expect = static_cast<uint64_t>(
        std::lower_bound(keys.begin(), keys.end(), splitters[s]) -
        keys.begin());
    EXPECT_EQ(below[s], expect) << "splitter " << splitters[s];
  }
}

TEST(PartitionPointsTest, ForwardRunBinarySearchAllBlockSizes) {
  MemEnv env;
  std::vector<Key> keys = SortedRandomKeys(4097, 3, 1 << 20);
  RunInfo run = WriteForwardRun(&env, "run", keys);
  const std::vector<Key> splitters = {keys.front(), keys[1000], keys[4000],
                                      keys.back()};
  // Block sizes from one-record blocks to larger-than-file.
  for (size_t block_bytes : {kRecordBytes, size_t{64}, size_t{4096},
                             size_t{1} << 20}) {
    std::vector<uint64_t> below;
    ASSERT_TWRS_OK(
        PartitionPointsForRun(&env, run, splitters, block_bytes, &below));
    for (size_t s = 0; s < splitters.size(); ++s) {
      const uint64_t expect = static_cast<uint64_t>(
          std::lower_bound(keys.begin(), keys.end(), splitters[s]) -
          keys.begin());
      EXPECT_EQ(below[s], expect)
          << "splitter " << splitters[s] << " block " << block_bytes;
    }
  }
}

/// A run that is one Appendix-A reverse segment, written in
/// non-increasing order with `options`.
RunInfo WriteReverseRun(Env* env, const std::string& base,
                        const std::vector<Key>& sorted_keys,
                        const ReverseRunFileOptions& options) {
  ReverseRunWriter writer(env, base, options);
  EXPECT_TRUE(writer.status().ok());
  std::vector<Key> descending(sorted_keys.rbegin(), sorted_keys.rend());
  Status s = writer.AppendBatch(descending.data(), descending.size());
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = writer.Finish();
  EXPECT_TRUE(s.ok()) << s.ToString();
  RunInfo run;
  RunSegment seg;
  seg.path = base;
  seg.reverse = true;
  seg.count = sorted_keys.size();
  seg.num_files = writer.num_files();
  run.segments.push_back(std::move(seg));
  run.length = sorted_keys.size();
  run.min_key = sorted_keys.front();
  run.max_key = sorted_keys.back();
  return run;
}

TEST(PartitionPointsTest, ReverseSegmentSearchAcrossFiles) {
  MemEnv env;
  // Keys in [10, 50): duplicate runs straddle the file boundaries.
  std::vector<Key> keys = SortedRandomKeys(200, 5, 40);
  for (Key& k : keys) k += 10;
  ReverseRunFileOptions options;
  options.page_bytes = 64;     // 8 records a page
  options.pages_per_file = 4;  // 24 records a file
  RunInfo run = WriteReverseRun(&env, "rev", keys, options);
  ASSERT_GE(run.segments[0].num_files, 3u);

  // File num_files - 1 holds the smallest keys: a partial file, then full
  // ones. Splitters sit below the minimum, above the maximum, on each
  // file's first key, and one past it.
  const uint64_t per_file = 24;
  const uint64_t smallest_file = keys.size() % per_file == 0
                                     ? per_file
                                     : keys.size() % per_file;
  std::set<Key> chosen = {0, keys.front(), keys.back(), keys.back() + 1,
                          1000};
  for (uint64_t base = smallest_file; base < keys.size(); base += per_file) {
    chosen.insert(keys[base]);
    chosen.insert(keys[base] + 1);
    chosen.insert(keys[base - 1]);
  }
  const std::vector<Key> splitters(chosen.begin(), chosen.end());
  for (size_t block_bytes : {kRecordBytes, size_t{32}, size_t{4096}}) {
    std::vector<uint64_t> below;
    ASSERT_TWRS_OK(
        PartitionPointsForRun(&env, run, splitters, block_bytes, &below));
    ASSERT_EQ(below.size(), splitters.size());
    for (size_t s = 0; s < splitters.size(); ++s) {
      const uint64_t expect = static_cast<uint64_t>(
          std::lower_bound(keys.begin(), keys.end(), splitters[s]) -
          keys.begin());
      EXPECT_EQ(below[s], expect)
          << "splitter " << splitters[s] << " block " << block_bytes;
    }
  }
}

TEST(PartitionPointsTest, ReverseSegmentSearchReadsHeadersAndFewBlocks) {
  MemEnv base;
  std::vector<Key> keys = SortedRandomKeys(20000, 9, 3000);
  ReverseRunFileOptions options;
  options.page_bytes = 4096;   // 512 records a page
  options.pages_per_file = 8;  // 3584 records a file
  RunInfo run = WriteReverseRun(&base, "rev", keys, options);
  const uint64_t num_files = run.segments[0].num_files;
  ASSERT_GE(num_files, 3u);
  const std::vector<Key> splitters = {keys[10], keys[7000], keys[7001] + 1,
                                      keys[19990]};
  const size_t block_bytes = 512;

  CountingEnv env(&base);
  std::vector<uint64_t> below;
  ASSERT_TWRS_OK(
      PartitionPointsForRun(&env, run, splitters, block_bytes, &below));
  for (size_t s = 0; s < splitters.size(); ++s) {
    EXPECT_EQ(below[s], static_cast<uint64_t>(
                            std::lower_bound(keys.begin(), keys.end(),
                                             splitters[s]) -
                            keys.begin()));
  }
  // Each file costs its 64-byte header and its first key; each splitter
  // a binary search over one file's block starts (at most 8 probes over
  // 56 blocks, plus slack) and one block.
  const uint64_t per_splitter = block_bytes + 10 * kRecordBytes;
  const uint64_t bound = num_files * (64 + kRecordBytes) +
                         splitters.size() * per_splitter;
  EXPECT_LE(env.bytes_read(), bound);
  EXPECT_LT(env.bytes_read(), keys.size() * kRecordBytes / 20);
}

// --------------------------------------------------- sliced RunCursor

TEST(RunCursorSliceTest, SliceYieldsExactSubrangeAcrossMixedSegments) {
  MemEnv env;
  std::vector<Key> keys = SortedRandomKeys(3000, 11, 400);
  RunInfo run = WriteMixedRun(&env, "run", keys);
  for (const auto& slice :
       std::vector<std::pair<uint64_t, uint64_t>>{{0, 3000},
                                                  {0, 1},
                                                  {1499, 2},
                                                  {1400, 300},
                                                  {2999, 1},
                                                  {3000, 0},
                                                  {100, 0}}) {
    RunCursor cursor(&env, run, 128);
    ASSERT_TWRS_OK(cursor.InitSlice(slice.first, slice.second));
    std::vector<Key> got;
    while (cursor.valid()) {
      got.push_back(cursor.key());
      ASSERT_TWRS_OK(cursor.Next());
    }
    const std::vector<Key> expect(
        keys.begin() + slice.first,
        keys.begin() + slice.first + slice.second);
    EXPECT_EQ(got, expect) << "slice +" << slice.first << " len "
                           << slice.second;
  }
}

// ------------------------------------------------------ byte identity

struct MergeCase {
  std::string name;
  std::vector<std::vector<Key>> runs;
};

std::vector<MergeCase> ByteIdentityCases() {
  std::vector<MergeCase> cases;
  {
    MergeCase c;
    c.name = "uniform";
    for (size_t r = 0; r < 6; ++r) {
      c.runs.push_back(SortedRandomKeys(2000 + 137 * r, 100 + r, 1 << 30));
    }
    cases.push_back(std::move(c));
  }
  {
    // Heavily skewed: most records share a handful of keys, so sampled
    // splitters collapse and some partitions go empty.
    MergeCase c;
    c.name = "skewed";
    for (size_t r = 0; r < 5; ++r) {
      Random rng(200 + r);
      std::vector<Key> keys;
      for (size_t i = 0; i < 3000; ++i) {
        const uint64_t roll = rng.Uniform(100);
        keys.push_back(roll < 90 ? static_cast<Key>(roll % 3)
                                 : static_cast<Key>(rng.Uniform(1 << 20)));
      }
      std::sort(keys.begin(), keys.end());
      c.runs.push_back(std::move(keys));
    }
    cases.push_back(std::move(c));
  }
  {
    // Duplicate-only: every record carries the same key; splitters are
    // degenerate and the partitioned path must fall back cleanly.
    MergeCase c;
    c.name = "all-duplicates";
    for (size_t r = 0; r < 4; ++r) {
      c.runs.emplace_back(1000, Key{42});
    }
    cases.push_back(std::move(c));
  }
  {
    // Fewer records than partitions.
    MergeCase c;
    c.name = "tiny";
    c.runs = {{1}, {2}, {0, 3}};
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(PartitionedMergeTest, ByteIdenticalToSerialAcrossPartitionCounts) {
  for (const MergeCase& c : ByteIdentityCases()) {
    MemEnv env;
    ThreadPool pool(4);
    std::vector<RunInfo> runs;
    for (size_t r = 0; r < c.runs.size(); ++r) {
      runs.push_back(
          WriteForwardRun(&env, "run" + std::to_string(r), c.runs[r]));
    }

    MergeOptions serial;
    serial.fan_in = 10;
    serial.block_bytes = 256;
    serial.temp_dir = "tmp";
    serial.remove_inputs = false;
    MergeStats serial_stats;
    ASSERT_TWRS_OK(
        MergeRuns(&env, runs, serial, "out_serial", &serial_stats));
    const std::vector<uint8_t>* expect = env.FileContents("out_serial");
    ASSERT_NE(expect, nullptr);

    for (size_t partitions : {size_t{1}, size_t{2}, size_t{8}}) {
      MergeOptions options = serial;
      options.pool = &pool;
      options.final_merge_threads = partitions;
      const std::string out = "out_p" + std::to_string(partitions);
      MergeStats stats;
      ASSERT_TWRS_OK(MergeRuns(&env, runs, options, out, &stats));
      const std::vector<uint8_t>* got = env.FileContents(out);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, *expect)
          << c.name << " P=" << partitions << " differs from serial";
      // Stats parity: the final pass is one merge step writing every
      // record once, however many partitions executed it.
      EXPECT_EQ(stats.merge_steps, serial_stats.merge_steps) << c.name;
      EXPECT_EQ(stats.records_written, serial_stats.records_written)
          << c.name;
    }
  }
}

TEST(PartitionedMergeTest, FullSortByteIdenticalWithReverseSegments) {
  // End to end through ExternalSorter with 2WRS runs, whose decreasing
  // streams reach the final merge as Appendix-A reverse segments: the
  // partition boundary pass and the sliced cursors must handle them.
  std::vector<Key> input;
  Random rng(31);
  for (size_t i = 0; i < 200000; ++i) {
    input.push_back(static_cast<Key>(rng.Uniform(1 << 24)));
  }

  MemEnv env;
  std::vector<uint8_t> expect;
  {
    ExternalSortOptions options;
    options.memory_records = 8192;
    options.temp_dir = "tmp";
    options.block_bytes = 4096;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_serial", nullptr));
    ASSERT_NE(env.FileContents("out_serial"), nullptr);
    expect = *env.FileContents("out_serial");
  }
  ExecutorOptions pool;
  pool.capacity = 4;
  Executor executor(pool);
  for (size_t partitions : {size_t{2}, size_t{8}}) {
    ExternalSortOptions options;
    options.memory_records = 8192;
    options.temp_dir = "tmp";
    options.block_bytes = 4096;
    options.parallel.worker_threads = 4;
    options.parallel.executor = &executor;
    options.parallel.final_merge_threads = partitions;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    const std::string out = "out_p" + std::to_string(partitions);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, out, &result));
    ASSERT_NE(env.FileContents(out), nullptr);
    EXPECT_EQ(*env.FileContents(out), expect) << "P=" << partitions;
    EXPECT_EQ(result.output_records, input.size());
  }
}

/// Env decorator that counts how often an `out*` file is reopened for
/// positioned writes, which of the final pass only a partial merge does.
class PositionedOpenCountingEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  void After(const IoOp& op, const Status& status) override {
    if (status.ok() && op.kind == IoOpKind::kOpen &&
        op.opened_by == OpenMethod::kReopenRandomRWFile &&
        op.path.rfind("out", 0) == 0) {
      ++opens_;
    }
  }

  int opens() const { return opens_.load(); }

 private:
  std::atomic<int> opens_{0};
};

TEST(PartitionedMergeTest, FinalMergeThreadsAloneBorrowThePool) {
  // With worker_threads at 0, final_merge_threads > 1 borrows the pool on
  // its own: the final pass splits into partial merges, each reopening
  // the output for its range, and the output is the serial one.
  std::vector<Key> input;
  Random rng(37);
  for (size_t i = 0; i < 100000; ++i) {
    input.push_back(static_cast<Key>(rng.Uniform(1 << 24)));
  }
  MemEnv mem;
  PositionedOpenCountingEnv env(&mem);
  ExecutorOptions pool;
  pool.capacity = 2;
  Executor executor(pool);
  for (size_t partitions : {size_t{1}, size_t{2}}) {
    ExternalSortOptions options;
    options.memory_records = 8192;
    options.temp_dir = "tmp";
    options.block_bytes = 4096;
    options.parallel.executor = &executor;
    options.parallel.final_merge_threads = partitions;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(
        sorter.Sort(&source, "out" + std::to_string(partitions), nullptr));
  }
  EXPECT_EQ(env.opens(), 2);
  ASSERT_NE(mem.FileContents("out2"), nullptr);
  EXPECT_TRUE(*mem.FileContents("out2") == *mem.FileContents("out1"));
}

// ------------------------------------------------------- cancellation

/// Env decorator that fires a CancelToken after the N-th positioned write
/// through a reopened handle — deterministically cancelling a partitioned
/// merge *while partial merges are writing*.
class CancelAfterWritesEnv : public EnvWrapper {
 public:
  CancelAfterWritesEnv(Env* base, CancelToken* token, int writes_left)
      : EnvWrapper(base), token_(token), writes_left_(writes_left) {}

  void After(const IoOp& op, const Status& status) override {
    if (status.ok() && op.kind == IoOpKind::kWrite &&
        op.opened_by == OpenMethod::kReopenRandomRWFile &&
        writes_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      token_->Cancel();
    }
  }

 private:
  CancelToken* token_;
  std::atomic<int> writes_left_;
};

TEST(PartitionedMergeTest, CancellationMidPartialMergeLeavesNoOutput) {
  MemEnv mem;
  CancelToken token;
  // Fire after the very first positioned write of any partial merge: the
  // other partitions are still mid-flight and must unwind cleanly.
  CancelAfterWritesEnv env(&mem, &token, 1);
  ThreadPool pool(4);

  // Big enough that every partition writes many blocks: the first
  // positioned WriteAt fires the token while all partitions still have
  // most of their range to go.
  std::vector<RunInfo> runs;
  for (size_t r = 0; r < 4; ++r) {
    runs.push_back(WriteForwardRun(&env, "run" + std::to_string(r),
                                   SortedRandomKeys(200000, 40 + r,
                                                    1 << 30)));
  }
  MergeOptions options;
  options.fan_in = 10;
  options.block_bytes = 4096;
  options.temp_dir = "tmp";
  options.remove_inputs = false;
  options.pool = &pool;
  options.final_merge_threads = 4;
  options.cancel = &token;
  Status s = MergeRuns(&env, runs, options, "out", nullptr);
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  // No partial output: a torn positioned file has holes, so the
  // partitioned path removes what it created.
  EXPECT_FALSE(mem.FileExists("out"));
}

// ------------------------------------------------ splitter sampling

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

}  // namespace
}  // namespace twrs
