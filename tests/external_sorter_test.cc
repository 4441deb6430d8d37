#include "merge/external_sorter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "core/load_sort_store.h"
#include "core/replacement_selection.h"
#include "core/two_way_replacement_selection.h"
#include "exec/executor.h"
#include "io/env_wrapper.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/uring_env.h"
#include "util/random.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::CancelAfterNSource;
using testing::ChecksumOf;
using testing::Drain;
using testing::FailingInputReadEnv;
using testing::GenerateRuns;

TEST(LoadSortStoreTest, RunsAreMemorySized) {
  LoadSortStoreOptions options;
  options.memory_records = 10;
  LoadSortStore lss(options);
  std::vector<Key> input;
  for (int i = 25; i > 0; --i) input.push_back(i);
  auto result = GenerateRuns(&lss, input);
  ASSERT_EQ(result.stats.run_lengths.size(), 3u);
  EXPECT_EQ(result.stats.run_lengths[0], 10u);
  EXPECT_EQ(result.stats.run_lengths[1], 10u);
  EXPECT_EQ(result.stats.run_lengths[2], 5u);
  testing::ExpectValidRuns(result.runs, input);
}

TEST(LoadSortStoreTest, RejectsZeroMemory) {
  LoadSortStoreOptions options;
  LoadSortStore lss(options);
  VectorSource source({1});
  CollectingRunSink sink;
  EXPECT_TRUE(lss.Generate(&source, &sink, nullptr).IsInvalidArgument());
}

TEST(ExternalSorterTest, AlgorithmNames) {
  EXPECT_STREQ(RunGenAlgorithmName(RunGenAlgorithm::kReplacementSelection),
               "RS");
  EXPECT_STREQ(
      RunGenAlgorithmName(RunGenAlgorithm::kTwoWayReplacementSelection),
      "2WRS");
  EXPECT_STREQ(RunGenAlgorithmName(RunGenAlgorithm::kLoadSortStore), "LSS");
}

// Every algorithm on every dataset must produce a sorted permutation of
// the input through the full two-phase pipeline.
using SortParam = std::tuple<int, int>;  // algorithm, dataset

class ExternalSorterPipelineTest : public ::testing::TestWithParam<SortParam> {
};

TEST_P(ExternalSorterPipelineTest, SortsToAPermutation) {
  const auto [algorithm, dataset] = GetParam();
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 77;
  wl.sections = 8;
  auto input = Drain(MakeWorkload(static_cast<Dataset>(dataset), wl).get());

  ExternalSortOptions options;
  options.algorithm = static_cast<RunGenAlgorithm>(algorithm);
  options.memory_records = 128;
  options.fan_in = 4;
  options.temp_dir = "tmp";
  options.block_bytes = 512;
  ExternalSorter sorter(&env, options);

  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));

  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == ChecksumOf(input));
  EXPECT_EQ(result.output_records, input.size());
  EXPECT_GT(result.run_gen.num_runs(), 0u);
  EXPECT_GE(result.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndDatasets, ExternalSorterPipelineTest,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Range(0, kNumDatasets)));

TEST(ExternalSorterTest, EmptyInputProducesEmptySortedFile) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 16;
  options.temp_dir = "tmp";
  ExternalSorter sorter(&env, options);
  VectorSource source({});
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
  uint64_t count = 99;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, nullptr));
  EXPECT_EQ(count, 0u);
}

TEST(ExternalSorterTest, TempFilesAreRemovedAfterSort) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 32;
  options.temp_dir = "tmp";
  options.fan_in = 2;
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 5;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));
  EXPECT_EQ(env.FileCount(), 1u);  // only the sorted output remains
}

TEST(ExternalSorterTest, SequentialSortsDoNotCollide) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 32;
  options.temp_dir = "tmp";
  ExternalSorter sorter(&env, options);
  for (int round = 0; round < 3; ++round) {
    WorkloadOptions wl;
    wl.num_records = 500;
    wl.seed = 100 + round;
    auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
    VectorSource source(input);
    const std::string out = "out" + std::to_string(round);
    ASSERT_TWRS_OK(sorter.Sort(&source, out, nullptr));
    uint64_t count = 0;
    KeyChecksum checksum;
    ASSERT_TWRS_OK(VerifySortedFile(&env, out, &count, &checksum));
    EXPECT_EQ(count, input.size());
    EXPECT_TRUE(checksum == ChecksumOf(input));
  }
}

// The pooled path (pool-dispatched leaf merges) must be a pure
// performance feature: same record count, same checksum, byte-identical
// output file.
TEST(ExternalSorterParallelTest, ParallelOutputIsByteIdenticalToSerial) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 42;
  wl.sections = 16;
  auto input =
      testing::Drain(MakeWorkload(Dataset::kAlternating, wl).get());

  ExternalSortOptions options;
  options.memory_records = 128;
  options.fan_in = 4;
  options.temp_dir = "tmp";
  options.block_bytes = 512;  // many blocks per stream

  ExternalSortResult serial_result;
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_serial", &serial_result));
  }

  options.parallel.worker_threads = 4;
  ExternalSortResult parallel_result;
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_parallel", &parallel_result));
  }

  uint64_t serial_count = 0, parallel_count = 0;
  KeyChecksum serial_sum, parallel_sum;
  ASSERT_TWRS_OK(
      VerifySortedFile(&env, "out_serial", &serial_count, &serial_sum));
  ASSERT_TWRS_OK(
      VerifySortedFile(&env, "out_parallel", &parallel_count, &parallel_sum));
  EXPECT_EQ(serial_count, input.size());
  EXPECT_EQ(parallel_count, serial_count);
  EXPECT_TRUE(parallel_sum == serial_sum);
  EXPECT_TRUE(serial_sum == testing::ChecksumOf(input));

  const std::vector<uint8_t>* serial_bytes = env.FileContents("out_serial");
  const std::vector<uint8_t>* parallel_bytes =
      env.FileContents("out_parallel");
  ASSERT_NE(serial_bytes, nullptr);
  ASSERT_NE(parallel_bytes, nullptr);
  EXPECT_TRUE(*serial_bytes == *parallel_bytes);

  // Identical merge schedule, so identical stats.
  EXPECT_EQ(parallel_result.run_gen.num_runs(),
            serial_result.run_gen.num_runs());
  EXPECT_EQ(parallel_result.merge.merge_steps,
            serial_result.merge.merge_steps);
  EXPECT_EQ(parallel_result.merge.records_written,
            serial_result.merge.records_written);
}

TEST(ExternalSorterParallelTest, ParallelSortCleansUpTempFiles) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 64;
  options.temp_dir = "tmp";
  options.fan_in = 2;
  options.parallel.worker_threads = 3;
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 9;
  auto input = testing::Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));
  EXPECT_EQ(env.FileCount(), 1u);  // only the sorted output remains
}

// Regression test for the fixed temp_dir collision: sorts sharing one
// temp_dir used to overwrite each other's run files ("sort0_run0_s1").
// Each Sort now works in a unique subdirectory, so fully concurrent sorts
// against one Env must both succeed and verify.
TEST(ExternalSorterParallelTest, ConcurrentSortsSharingTempDirDoNotCollide) {
  MemEnv env;
  constexpr int kSorts = 4;
  std::vector<std::vector<Key>> inputs(kSorts);
  std::vector<Status> statuses(kSorts);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSorts; ++i) {
    WorkloadOptions wl;
    wl.num_records = 4000;
    wl.seed = 1000 + i;
    inputs[i] = testing::Drain(MakeWorkload(Dataset::kRandom, wl).get());
    threads.emplace_back([&env, &inputs, &statuses, i] {
      ExternalSortOptions options;
      options.memory_records = 64;
      options.fan_in = 3;
      options.temp_dir = "tmp";  // deliberately shared
      options.block_bytes = 512;
      // Odd sorts additionally run their own parallel pipeline.
      options.parallel.worker_threads = (i % 2 == 1) ? 2 : 0;
      ExternalSorter sorter(&env, options);
      VectorSource source(inputs[i]);
      statuses[i] = sorter.Sort(&source, "out" + std::to_string(i), nullptr);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kSorts; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    uint64_t count = 0;
    KeyChecksum checksum;
    ASSERT_TWRS_OK(VerifySortedFile(&env, "out" + std::to_string(i), &count,
                                    &checksum));
    EXPECT_EQ(count, inputs[i].size());
    EXPECT_TRUE(checksum == testing::ChecksumOf(inputs[i]));
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation and error-path hygiene

// MemEnv that fires the token on the first sequential open. The sort's
// run generation only writes, so the first read is the merge phase
// opening its first input — deterministic mid-merge cancellation.
class CancelOnFirstReadEnv : public MemEnv {
 public:
  explicit CancelOnFirstReadEnv(CancelToken* token) : token_(token) {}

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    token_->Cancel();
    return MemEnv::NewSequentialFile(path, out);
  }

 private:
  CancelToken* token_;
};

ExternalSortOptions CancelTestOptions(const CancelToken* token) {
  ExternalSortOptions options;
  options.memory_records = 128;
  options.fan_in = 4;
  options.temp_dir = "tmp";
  options.block_bytes = 512;
  options.cancel = token;
  return options;
}

TEST(ExternalSorterCancelTest, PreCancelledSortFailsFastAndWritesNothing) {
  MemEnv env;
  CancelToken token;
  token.Cancel();
  ExternalSorter sorter(&env, CancelTestOptions(&token));
  VectorSource source({3, 1, 2});
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterCancelTest, CancelMidRunGenerationUnwindsAndCleansUp) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 21;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  CancelToken token;
  ExternalSorter sorter(&env, CancelTestOptions(&token));
  // Fire a quarter of the way in: several runs already sit on disk.
  CancelAfterNSource source(input, 5000, &token);
  const Status status = sorter.Sort(&source, "out", nullptr);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  // No run files, no partial output — nothing survives the cancel.
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterCancelTest, CancelMidMergeUnwindsAndCleansUp) {
  CancelToken token;
  CancelOnFirstReadEnv env(&token);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 22;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  ProgressCounters progress;
  ExternalSortOptions options = CancelTestOptions(&token);
  options.progress = &progress;
  ExternalSorter sorter(&env, options);
  VectorSource source(input);
  const Status status = sorter.Sort(&source, "out", nullptr);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(status.message(), "merge cancelled");
  EXPECT_EQ(env.FileCount(), 0u);
  // A cancelled sort never reads as complete.
  EXPECT_EQ(progress.Snapshot().phase, SortProgressPhase::kFinalMerge);
}

TEST(ExternalSorterCancelTest, LoadSortStoreCancelMidRunGeneration) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 25;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  CancelToken token;
  ExternalSortOptions options = CancelTestOptions(&token);
  options.algorithm = RunGenAlgorithm::kLoadSortStore;
  ExternalSorter sorter(&env, options);
  // Fires mid-batch: the batch completes, the next read or span append
  // sees the token.
  CancelAfterNSource source(input, 5000, &token);
  const Status status = sorter.Sort(&source, "out", nullptr);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(env.FileCount(), 0u);
}

// One run generator as the sorter builds it.
struct GeneratorCase {
  RunGenAlgorithm algorithm;
  const char* name;  ///< what MakeRunGenerator's generator reports
};

// Every run generator class the sorter can build.
std::vector<GeneratorCase> EveryGenerator() {
  return {
      {RunGenAlgorithm::kReplacementSelection, "BatchedRS"},
      {RunGenAlgorithm::kTwoWayReplacementSelection, "Batched2WRS"},
      {RunGenAlgorithm::kLoadSortStore, "LSS"},
  };
}

TEST(RunGeneratorTest, EveryAlgorithmBuildsItsEngineGenerator) {
  for (const GeneratorCase& generator : EveryGenerator()) {
    EXPECT_EQ(MakeRunGenerator(generator.algorithm, 128)->name(),
              generator.name);
  }
}

TEST(ExternalSorterTest, EveryGeneratorsProgressCountsAreExact) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 10007;  // not a multiple of any batch or block
  wl.seed = 26;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ASSERT_TWRS_OK(WriteAllRecords(&env, "in", input));

  for (const GeneratorCase& generator : EveryGenerator()) {
    SCOPED_TRACE(generator.name);
    ProgressCounters progress;
    ExternalSortOptions options;
    options.algorithm = generator.algorithm;
    options.memory_records = 1000;
    options.fan_in = 16;  // one merge pass: every record is merged once
    options.temp_dir = "tmp";
    options.block_bytes = 512;
    options.progress = &progress;
    ExternalSorter sorter(&env, options);
    FileRecordSource source(&env, "in", options.block_bytes);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    const JobProgress done = progress.Snapshot();
    EXPECT_EQ(done.phase, SortProgressPhase::kComplete);
    EXPECT_EQ(done.records_ingested, input.size());
    EXPECT_EQ(done.records_merged, input.size());
    EXPECT_EQ(result.merge.records_written, input.size());
  }
}

TEST(RunGeneratorTest, GenerateReturnsTheSourceReadError) {
  constexpr size_t kMemory = 128;
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 27;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  // The engine's generators, and the paper's record-at-a-time references.
  std::vector<std::unique_ptr<RunGenerator>> generators;
  for (const GeneratorCase& generator : EveryGenerator()) {
    generators.push_back(MakeRunGenerator(generator.algorithm, kMemory));
  }
  ReplacementSelectionOptions rs;
  rs.memory_records = kMemory;
  generators.push_back(std::make_unique<ReplacementSelection>(rs));
  TwoWayOptions reference = TwoWayOptions::Recommended(kMemory);
  reference.input_heuristic = InputHeuristic::kMedian;
  reference.output_heuristic = OutputHeuristic::kAlternate;
  generators.push_back(
      std::make_unique<TwoWayReplacementSelection>(reference));
  for (const std::unique_ptr<RunGenerator>& generator : generators) {
    // The read fails before memory fills, and long after it.
    for (const size_t records : {size_t{50}, input.size()}) {
      SCOPED_TRACE(::testing::Message() << generator->name() << " after "
                                        << records << " records");
      testing::FailingSource source(
          std::vector<Key>(input.begin(), input.begin() + records),
          Status::IOError("injected read error"));
      CollectingRunSink sink;
      RunGenStats stats;
      const Status status = generator->Generate(&source, &sink, &stats);
      EXPECT_TRUE(status.IsIOError()) << status.ToString();
    }
  }
}

TEST(ExternalSorterCancelTest, ParallelSortAlsoObservesTheToken) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 23;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  CancelToken token;
  ExecutorOptions pool;
  pool.capacity = 2;
  Executor executor(pool);
  ExternalSortOptions options = CancelTestOptions(&token);
  options.parallel.worker_threads = 2;
  options.parallel.executor = &executor;
  ExternalSorter sorter(&env, options);
  CancelAfterNSource source(input, 5000, &token);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterTest, FailedMergeLeavesNoScratchOrTornOutput) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 32;
  options.temp_dir = "tmp";
  options.fan_in = 1;  // poison: run generation succeeds, the merge fails
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 24;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsInvalidArgument());
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterTest, FailureDoesNotDeleteAPreexistingOutputFile) {
  MemEnv env;
  // Yesterday's result, re-sorted into the same destination today.
  ASSERT_TWRS_OK(WriteAllRecords(&env, "out", {1, 2, 3}));

  CancelToken token;
  token.Cancel();
  ExternalSorter sorter(&env, CancelTestOptions(&token));
  VectorSource source({9, 8, 7});
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());

  // The failed sort never opened the output; the old file must survive.
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys, (std::vector<Key>{1, 2, 3}));
}

TEST(ExternalSorterCancelTest, TornOutputThisSortTruncatedIsRemoved) {
  CancelToken token;
  CancelOnFirstReadEnv env(&token);
  // A pre-existing output that the re-sort truncates before the merge's
  // first input read fires the token: the old data is already gone, and
  // the torn partial must not be left masquerading as a result.
  ASSERT_TWRS_OK(WriteAllRecords(&env, "out", {1, 2, 3}));

  ExternalSortOptions options = CancelTestOptions(&token);
  // Single merge pass: the final merge truncates "out" before it opens
  // its first input, which is what fires the token.
  options.fan_in = 64;
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 26;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());
  EXPECT_FALSE(env.FileExists("out"));
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterTest, ReportsEngineIoVolume) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 64;
  options.temp_dir = "tmp";
  options.fan_in = 2;  // several merge passes
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 25;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));

  const uint64_t input_bytes = input.size() * kRecordBytes;
  // Runs written once plus the output, plus intermediate passes: at least
  // 2x the input volume out, at least 1x back in.
  EXPECT_GE(result.bytes_written, 2 * input_bytes);
  EXPECT_GE(result.bytes_read, input_bytes);
}

TEST(ExternalSorterTest, SerialSortTimesItsPhasesAndWrites) {
  // Every write that reaches a file is timed when a registry is given —
  // also without a pool, where nothing is flushed in the background — and
  // so is each of the sort's two phases.
  MemEnv env;
  MetricsRegistry metrics;
  ExternalSortOptions options;
  options.memory_records = 64;
  options.temp_dir = "tmp";
  options.metrics = &metrics;
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 26;
  VectorSource source(Drain(MakeWorkload(Dataset::kRandom, wl).get()));
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));
  const MetricsSnapshot snapshot = metrics.Snapshot();
  for (const char* name :
       {"run_sink.flush_seconds", "merge_sink.flush_seconds"}) {
    const HistogramSummary* histogram = snapshot.FindHistogram(name);
    ASSERT_NE(histogram, nullptr) << name;
    EXPECT_GT(histogram->count, 0u) << name;
  }
  for (const char* name :
       {"sort.run_generation_seconds", "sort.final_merge_seconds"}) {
    const HistogramSummary* histogram = snapshot.FindHistogram(name);
    ASSERT_NE(histogram, nullptr) << name;
    EXPECT_EQ(histogram->count, 1u) << name;
  }
  // Planning the merge is part of the merge; it has no phase of its own.
  EXPECT_EQ(snapshot.FindHistogram("sort.merge_planning_seconds"), nullptr);
}

/// Env decorator counting Sync calls per path, on append and positioned
/// handles alike.
class SyncCountingEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  std::map<std::string, int> syncs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return syncs_;
  }

  Status Before(const IoOp& op) override {
    if (op.kind == IoOpKind::kSync) {
      std::lock_guard<std::mutex> lock(mu_);
      ++syncs_[op.path];
    }
    return Status::OK();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, int> syncs_;
};

TEST(ExternalSorterTest, OnlyTheFinalOutputIsSynced) {
  // Durability is paid once, on the user-visible output: every final-merge
  // writer (serial, pooled, each partition's range, the pruned top-K
  // merge) syncs before closing, while run files and intermediate
  // merges — scratch that is re-read and deleted — never sync.
  WorkloadOptions wl;
  wl.num_records = 40000;
  wl.seed = 27;
  const std::vector<Key> input =
      Drain(MakeWorkload(Dataset::kRandom, wl).get());
  struct Case {
    const char* name;
    size_t worker_threads;
    size_t final_merge_threads;
    uint64_t limit;
  };
  const Case cases[] = {{"serial", 0, 1, 0},
                        {"pooled", 2, 1, 0},
                        {"partitioned", 4, 4, 0},
                        {"run-pruning top-K", 0, 1, 300}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MemEnv mem;
    SyncCountingEnv env(&mem);
    ExternalSortOptions options;
    options.memory_records = 256;
    options.fan_in = 4;  // intermediate merges too
    options.temp_dir = "tmp";
    options.block_bytes = 4096;
    options.parallel.worker_threads = c.worker_threads;
    options.parallel.final_merge_threads = c.final_merge_threads;
    options.limit = c.limit;
    if (c.limit > 0) options.topk_strategy = TopKStrategy::kRunPruningMerge;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    EXPECT_GT(result.merge.merge_steps, 1u);

    const std::map<std::string, int> syncs = env.syncs();
    ASSERT_EQ(syncs.count("out"), 1u) << "output never synced";
    if (c.final_merge_threads > 1) {
      EXPECT_GT(syncs.at("out"), 1);  // once per partition's range writer
    } else {
      EXPECT_EQ(syncs.at("out"), 1);
    }
    for (const auto& [path, count] : syncs) {
      EXPECT_EQ(path, "out") << "scratch file synced " << count << " times";
    }
  }
}

// ---------------------------------------------------------------------------
// Top-K selection (options.limit): every strategy must produce output
// byte-identical to a full sort truncated to the requested end.

/// The reference a LIMIT plan must match: full sort, keep K from the
/// requested end, ascending.
std::vector<Key> TruncatedReference(std::vector<Key> input, uint64_t k,
                                    SelectOrder order) {
  std::sort(input.begin(), input.end());
  k = std::min<uint64_t>(k, input.size());
  if (order == SelectOrder::kAscending) {
    input.resize(k);
  } else {
    input.erase(input.begin(), input.end() - static_cast<ptrdiff_t>(k));
  }
  return input;
}

ExternalSortOptions TopKTestOptions() {
  ExternalSortOptions options;
  options.memory_records = 128;
  options.fan_in = 4;  // multiple merge passes: intermediate clamps too
  options.temp_dir = "tmp";
  options.block_bytes = 512;
  return options;
}

TEST(ExternalSorterTopKTest, EveryStrategyMatchesFullSortTruncation) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 31;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  const uint64_t limits[] = {1, 37, 500, 2500, 5000, 9999};
  const TopKStrategy strategies[] = {TopKStrategy::kAuto,
                                     TopKStrategy::kDualHeap,
                                     TopKStrategy::kRunPruningMerge};
  for (SelectOrder order :
       {SelectOrder::kAscending, SelectOrder::kDescending}) {
    for (uint64_t limit : limits) {
      const auto reference = TruncatedReference(input, limit, order);
      for (TopKStrategy strategy : strategies) {
        ExternalSortOptions options = TopKTestOptions();
        options.limit = limit;
        options.order = order;
        options.topk_strategy = strategy;
        ExternalSorter sorter(&env, options);
        VectorSource source(input);
        ExternalSortResult result;
        SCOPED_TRACE(std::string(TopKStrategyName(strategy)) + "/" +
                     SelectOrderName(order) + "/K=" + std::to_string(limit));
        ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
        EXPECT_EQ(result.output_records, reference.size());
        EXPECT_NE(result.topk_strategy, TopKStrategy::kAuto);

        std::vector<Key> got;
        ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
        EXPECT_EQ(got, reference);
        EXPECT_EQ(env.FileCount(), 1u);  // scratch cleaned up
        ASSERT_TWRS_OK(env.RemoveFile("out"));
      }
    }
  }
}

TEST(ExternalSorterTopKTest, AutoPlansDualHeapOnlyWhenKFitsMemory) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 3000;
  wl.seed = 32;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (uint64_t limit : {uint64_t{64}, uint64_t{2000}}) {
    ExternalSortOptions options = TopKTestOptions();  // memory_records = 128
    options.limit = limit;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    EXPECT_EQ(result.topk_strategy, limit <= options.memory_records
                                        ? TopKStrategy::kDualHeap
                                        : TopKStrategy::kRunPruningMerge);
    ASSERT_TWRS_OK(env.RemoveFile("out"));
  }
}

TEST(ExternalSorterTopKTest, DualHeapDoesNoRunIo) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 4000;
  wl.seed = 33;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ExternalSortOptions options = TopKTestOptions();
  options.limit = 50;
  options.topk_strategy = TopKStrategy::kDualHeap;
  ExternalSorter sorter(&env, options);
  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
  EXPECT_EQ(result.run_gen.num_runs(), 0u);
  EXPECT_EQ(result.bytes_read, 0u);  // streamed source, no scratch reads
  EXPECT_EQ(result.bytes_written, 50u * kRecordBytes);
  EXPECT_EQ(result.run_gen.total_records, input.size());
}

TEST(ExternalSorterTopKTest, RunPruningMergeReadsStrictlyFewerBytes) {
  // The acceptance pin: with the same input, memory and merge schedule, a
  // run-pruned merge must read strictly fewer bytes than the full sort —
  // run slices clamp what each cursor fetches, and sampled bounds prune
  // whole runs without ever opening them. bytes_read comes from the
  // sorter's internal CountingEnv. Ascending-trend input with local
  // shuffle (a scan of a roughly time-ordered table): runs cover narrow,
  // mostly disjoint key bands, so for a small K nearly every run sits
  // entirely above the selection bound.
  MemEnv env;
  std::vector<Key> input;
  Random rng(34);
  for (Key band = 0; band < 13; ++band) {
    for (int i = 0; i < 4096; ++i) {
      input.push_back(band * 1000000 +
                      static_cast<Key>(rng.Uniform(1000000)));
    }
  }

  ExternalSortOptions options = TopKTestOptions();
  options.memory_records = 1024;
  options.fan_in = 128;  // single merge pass over every run
  ExternalSortResult full;
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_full", &full));
  }

  options.limit = 100;
  options.topk_strategy = TopKStrategy::kRunPruningMerge;
  ExternalSortResult pruned;
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_topk", &pruned));
  }

  EXPECT_LT(pruned.bytes_read, full.bytes_read);
  EXPECT_LT(pruned.bytes_written, full.bytes_written);
  EXPECT_GE(pruned.merge.runs_pruned, 1u);
  EXPECT_GT(pruned.merge.records_pruned, 0u);

  std::vector<Key> got;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out_topk", &got));
  EXPECT_EQ(got, TruncatedReference(input, 100, SelectOrder::kAscending));
}

TEST(ExternalSorterTopKTest, PartitionedFinalMergeHonorsTheLimit) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 35;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (SelectOrder order :
       {SelectOrder::kAscending, SelectOrder::kDescending}) {
    ExternalSortOptions options = TopKTestOptions();
    options.fan_in = 128;  // all runs reach the final merge
    options.limit = 3000;
    options.order = order;
    options.topk_strategy = TopKStrategy::kRunPruningMerge;
    options.parallel.worker_threads = 4;
    options.parallel.final_merge_threads = 4;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    std::vector<Key> got;
    ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
    EXPECT_EQ(got, TruncatedReference(input, 3000, order))
        << SelectOrderName(order);
    ASSERT_TWRS_OK(env.RemoveFile("out"));
  }
}

TEST(ExternalSorterTopKTest, LimitOnEmptyAndTinyInputs) {
  MemEnv env;
  for (TopKStrategy strategy :
       {TopKStrategy::kDualHeap, TopKStrategy::kRunPruningMerge}) {
    ExternalSortOptions options = TopKTestOptions();
    options.limit = 10;
    options.topk_strategy = strategy;
    ExternalSorter sorter(&env, options);
    {
      VectorSource source({});
      ExternalSortResult result;
      ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
      EXPECT_EQ(result.output_records, 0u);
      std::vector<Key> got;
      ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
      EXPECT_TRUE(got.empty());
    }
    {
      VectorSource source({3, 1, 2});
      ExternalSortResult result;
      ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
      EXPECT_EQ(result.output_records, 3u);
      std::vector<Key> got;
      ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
      EXPECT_EQ(got, (std::vector<Key>{1, 2, 3}));
    }
    ASSERT_TWRS_OK(env.RemoveFile("out"));
  }
}

TEST(ExternalSorterTopKTest, DualHeapProgressCountsAreExact) {
  // The selection reads and reports its input a 1024-record batch at a
  // time; the last, short batch must be counted too.
  for (const uint64_t n : {uint64_t{3 * 1024}, uint64_t{3 * 1024 + 5}}) {
    SCOPED_TRACE(n);
    MemEnv env;
    WorkloadOptions wl;
    wl.num_records = n;
    wl.seed = 36;
    const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
    ASSERT_TWRS_OK(WriteAllRecords(&env, "in", input));
    ProgressCounters progress;
    ExternalSortOptions options = TopKTestOptions();
    options.limit = 10;
    options.topk_strategy = TopKStrategy::kDualHeap;
    options.progress = &progress;
    ExternalSorter sorter(&env, options);
    FileRecordSource source(&env, "in", options.block_bytes);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    const JobProgress done = progress.Snapshot();
    EXPECT_EQ(done.phase, SortProgressPhase::kComplete);
    EXPECT_EQ(done.records_ingested, n);
    EXPECT_EQ(done.records_merged, 10u);
    EXPECT_EQ(result.run_gen.total_records, n);
  }
}

TEST(ExternalSorterTopKTest, CancelDuringDualHeapSelectionCleansUp) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 37;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  CancelToken token;
  ExternalSortOptions options = TopKTestOptions();
  options.cancel = &token;
  options.limit = 10;
  options.topk_strategy = TopKStrategy::kDualHeap;
  ProgressCounters progress;
  options.progress = &progress;
  ExternalSorter sorter(&env, options);
  CancelAfterNSource source(input, 5000, &token);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());
  EXPECT_EQ(env.FileCount(), 0u);
  EXPECT_EQ(progress.Snapshot().phase, SortProgressPhase::kRunGeneration);
}

TEST(ExternalSorterTest, InputReadErrorFailsFullAndTopKSorts) {
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 38;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  const size_t input_bytes = input.size() * kRecordBytes;

  struct Mode {
    uint64_t limit;
    TopKStrategy strategy;
  };
  // Every generator and every top-K path must surface the error.
  for (const RunGenAlgorithm algorithm :
       {RunGenAlgorithm::kReplacementSelection,
        RunGenAlgorithm::kTwoWayReplacementSelection,
        RunGenAlgorithm::kLoadSortStore}) {
    for (const Mode mode : {Mode{0, TopKStrategy::kAuto},
                            Mode{10, TopKStrategy::kDualHeap},
                            Mode{10, TopKStrategy::kRunPruningMerge}}) {
      SCOPED_TRACE(::testing::Message()
                   << RunGenAlgorithmName(algorithm) << " limit "
                   << mode.limit << " strategy "
                   << static_cast<int>(mode.strategy));
      MemEnv mem;
      ASSERT_TWRS_OK(WriteAllRecords(&mem, "in", input));
      FailingInputReadEnv env(&mem, "in", input_bytes / 2);
      ExternalSortOptions options = TopKTestOptions();
      options.algorithm = algorithm;
      options.limit = mode.limit;
      options.topk_strategy = mode.strategy;
      ExternalSorter sorter(&env, options);
      FileRecordSource source(&env, "in", options.block_bytes);
      const Status status = sorter.Sort(&source, "out", nullptr);
      EXPECT_TRUE(status.IsIOError()) << status.ToString();
      // Neither scratch nor a truncated output survives; only the input.
      EXPECT_EQ(mem.FileCount(), 1u);
    }
  }
}

// Env whose `fail_at`-th sequential read of any scratch file (path under
// "tmp/") fails: a disk error while the merge reads its runs. Run
// generation only writes scratch files, so every such read is a merge
// cursor opening a segment or refilling its block. A `fail_at` of 0 never
// fails and just counts.
class FailingRunReadEnv : public EnvWrapper {
 public:
  FailingRunReadEnv(Env* base, uint64_t fail_at)
      : EnvWrapper(base), fail_at_(fail_at) {}

  uint64_t reads() const { return reads_; }

  Status Before(const IoOp& op) override {
    if (op.kind == IoOpKind::kRead &&
        op.opened_by == OpenMethod::kNewSequentialFile &&
        op.path.rfind("tmp/", 0) == 0 && ++reads_ == fail_at_) {
      return Status::IOError("injected run read error");
    }
    return Status::OK();
  }

 private:
  uint64_t fail_at_;
  uint64_t reads_ = 0;
};

TEST(ExternalSorterTest, MergeReadErrorFailsTheSort) {
  WorkloadOptions wl;
  wl.num_records = 6000;
  wl.seed = 39;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (const RunGenAlgorithm algorithm :
       {RunGenAlgorithm::kTwoWayReplacementSelection,
        RunGenAlgorithm::kLoadSortStore}) {
    SCOPED_TRACE(RunGenAlgorithmName(algorithm));
    ExternalSortOptions options = TopKTestOptions();
    options.algorithm = algorithm;
    // Count the scratch reads of a clean sort first.
    uint64_t total_reads = 0;
    {
      MemEnv mem;
      FailingRunReadEnv env(&mem, 0);
      ExternalSorter sorter(&env, options);
      VectorSource source(input);
      ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));
      total_reads = env.reads();
    }
    ASSERT_GT(total_reads, 8u);
    // The first read opens a cursor; the middle ones land on block refills
    // inside the merge loop; the last is a final-pass refill at a run's end.
    for (const uint64_t fail_at :
         {uint64_t{1}, uint64_t{2}, total_reads / 3, total_reads / 2,
          total_reads - 1, total_reads}) {
      SCOPED_TRACE(::testing::Message() << "read " << fail_at << " of "
                                        << total_reads);
      MemEnv mem;
      FailingRunReadEnv env(&mem, fail_at);
      ExternalSorter sorter(&env, options);
      VectorSource source(input);
      const Status status = sorter.Sort(&source, "out", nullptr);
      EXPECT_TRUE(status.IsIOError()) << status.ToString();
      // No scratch and no short output survive.
      EXPECT_EQ(mem.FileCount(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel run generation

// A sort whose run generation runs `threads` generators on `executor`;
// `executor` null keeps the sort serial.
ExternalSortOptions RunGenThreadsOptions(RunGenAlgorithm algorithm,
                                         size_t threads,
                                         Executor* executor) {
  ExternalSortOptions options;
  options.algorithm = algorithm;
  options.memory_records = 256;
  options.fan_in = 4;
  options.temp_dir = "tmp";
  options.block_bytes = 512;
  if (executor != nullptr) {
    options.parallel.worker_threads = 2;
    options.parallel.executor = executor;
  }
  options.parallel.run_generation_threads = threads;
  return options;
}

Executor* RunGenExecutor() {
  static Executor* executor = [] {
    ExecutorOptions options;
    options.capacity = 4;
    return new Executor(options);
  }();
  return executor;
}

uint64_t SumOf(const std::vector<uint64_t>& lengths) {
  uint64_t sum = 0;
  for (uint64_t n : lengths) sum += n;
  return sum;
}

TEST(ExternalSorterRunGenThreadsTest, OutputIsByteIdenticalToSerial) {
  const RunGenAlgorithm algorithms[] = {
      RunGenAlgorithm::kReplacementSelection,
      RunGenAlgorithm::kTwoWayReplacementSelection,
      RunGenAlgorithm::kLoadSortStore,
  };
  for (int d = 0; d < kNumDatasets; ++d) {
    const auto dataset = static_cast<Dataset>(d);
    WorkloadOptions wl;
    wl.num_records = 10000;
    wl.seed = 40 + d;
    wl.sections = 8;
    const auto input = Drain(MakeWorkload(dataset, wl).get());
    for (RunGenAlgorithm algorithm : algorithms) {
      MemEnv env;
      ExternalSortResult serial;
      {
        ExternalSorter sorter(
            &env, RunGenThreadsOptions(algorithm, 1, nullptr));
        VectorSource source(input);
        ASSERT_TWRS_OK(sorter.Sort(&source, "serial", &serial));
      }
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << DatasetName(dataset) << " "
                     << RunGenAlgorithmName(algorithm) << " P=" << threads);
        ExternalSorter sorter(
            &env, RunGenThreadsOptions(algorithm, threads, RunGenExecutor()));
        VectorSource source(input);
        ExternalSortResult result;
        ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
        ASSERT_NE(env.FileContents("out"), nullptr);
        EXPECT_TRUE(*env.FileContents("out") == *env.FileContents("serial"));
        EXPECT_EQ(result.output_records, input.size());
        EXPECT_EQ(result.run_gen.total_records, input.size());
        EXPECT_EQ(SumOf(result.run_gen.run_lengths), input.size());
        if (threads == 1) {
          // One generator on the caller: the serial loop, run once.
          EXPECT_EQ(result.run_gen.run_lengths, serial.run_gen.run_lengths);
          EXPECT_EQ(result.merge.merge_steps, serial.merge.merge_steps);
        }
        EXPECT_EQ(env.FileCount(), 2u);  // serial + out: no scratch left
      }
    }
  }
}

// run_generation_threads > 1 borrows the pool on its own: with
// worker_threads at 0, four Load-Sort-Store generators each sort a quarter
// of the budget, and the output is the serial one.
TEST(ExternalSorterRunGenThreadsTest, GeneratorThreadsAloneBorrowThePool) {
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 47;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  MemEnv env;
  {
    ExternalSorter sorter(
        &env, RunGenThreadsOptions(RunGenAlgorithm::kLoadSortStore, 1,
                                   nullptr));
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "serial", nullptr));
  }
  ExternalSortOptions options = RunGenThreadsOptions(
      RunGenAlgorithm::kLoadSortStore, 4, RunGenExecutor());
  options.parallel.worker_threads = 0;
  ExternalSorter sorter(&env, options);
  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
  const uint64_t share = options.memory_records / 4;
  for (uint64_t length : result.run_gen.run_lengths) {
    EXPECT_LE(length, share);
  }
  EXPECT_GE(result.run_gen.num_runs(), input.size() / share);
  ASSERT_NE(env.FileContents("out"), nullptr);
  EXPECT_TRUE(*env.FileContents("out") == *env.FileContents("serial"));
}

// The generators share the sort's memory budget: with Load-Sort-Store,
// whose runs are exactly one memory load, no run exceeds memory / P.
TEST(ExternalSorterRunGenThreadsTest, GeneratorsShareTheMemoryBudget) {
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 48;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "P=" << threads);
    MemEnv env;
    ExternalSortOptions options = RunGenThreadsOptions(
        RunGenAlgorithm::kLoadSortStore, threads, RunGenExecutor());
    options.memory_records = 1000;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    const uint64_t share = options.memory_records / threads;
    for (uint64_t length : result.run_gen.run_lengths) {
      EXPECT_LE(length, share);
    }
    EXPECT_GE(result.run_gen.num_runs(), input.size() / share);
  }
}

// Every generator gets at least the smallest memory its algorithm
// accepts: 8 records make two 2WRS generators of 4, not four of 2 (2WRS
// rejects memory below 3), so a budget that sorts serially sorts at any P.
TEST(ExternalSorterRunGenThreadsTest, TinyBudgetNeverStarvesAGenerator) {
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 49;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (RunGenAlgorithm algorithm :
       {RunGenAlgorithm::kTwoWayReplacementSelection,
        RunGenAlgorithm::kReplacementSelection}) {
    SCOPED_TRACE(RunGenAlgorithmName(algorithm));
    MemEnv env;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExternalSortOptions options = RunGenThreadsOptions(
          algorithm, threads, threads == 1 ? nullptr : RunGenExecutor());
      options.memory_records = 8;
      ExternalSorter sorter(&env, options);
      VectorSource source(input);
      ASSERT_TWRS_OK(
          sorter.Sort(&source, threads == 1 ? "serial" : "out", nullptr));
    }
    EXPECT_TRUE(*env.FileContents("out") == *env.FileContents("serial"));
  }
}

TEST(ExternalSorterRunGenThreadsTest, InputReadErrorFailsAndWritesNothing) {
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 18;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "P=" << threads);
    MemEnv env;
    ExternalSorter sorter(
        &env, RunGenThreadsOptions(RunGenAlgorithm::kTwoWayReplacementSelection,
                                   threads, RunGenExecutor()));
    // The read fails after several batches have become runs.
    testing::FailingSource source(input,
                                  Status::IOError("injected read error"));
    const Status status = sorter.Sort(&source, "out", nullptr);
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_EQ(env.FileCount(), 0u);  // no run files, no partial output
  }
}

TEST(ExternalSorterRunGenThreadsTest, CancelMidGenerationWritesNothing) {
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 18;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "P=" << threads);
    MemEnv env;
    CancelToken token;
    ExternalSortOptions options = RunGenThreadsOptions(
        RunGenAlgorithm::kTwoWayReplacementSelection, threads,
        RunGenExecutor());
    options.cancel = &token;
    ExternalSorter sorter(&env, options);
    // Fires after two full batches and part of a third.
    CancelAfterNSource source(input, 2500, &token);
    const Status status = sorter.Sort(&source, "out", nullptr);
    EXPECT_TRUE(status.IsCancelled()) << status.ToString();
    EXPECT_EQ(env.FileCount(), 0u);
  }
}

// MemEnv whose N-th created writable file fails to open: one generator's
// run sink fails while the others are still generating.
class FailNthWritableEnv : public MemEnv {
 public:
  explicit FailNthWritableEnv(int n) : n_(n) {}

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    if (created_.fetch_add(1) + 1 == n_) {
      return Status::IOError("injected create failure: " + path);
    }
    return MemEnv::NewWritableFile(path, out);
  }

 private:
  const int n_;
  std::atomic<int> created_{0};
};

TEST(ExternalSorterRunGenThreadsTest, OneGeneratorsFailureFailsTheSort) {
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 49;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  FailNthWritableEnv env(6);
  ExternalSorter sorter(
      &env, RunGenThreadsOptions(RunGenAlgorithm::kLoadSortStore, 4,
                                 RunGenExecutor()));
  VectorSource source(input);
  const Status status = sorter.Sort(&source, "out", nullptr);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(env.FileCount(), 0u);
}

// A merge that fails after every generator wrote its runs leaves no
// scratch behind either: only the input survives.
TEST(ExternalSorterRunGenThreadsTest, FailedMergeLeavesOnlyTheInput) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 8000;
  wl.seed = 17;
  ASSERT_TWRS_OK(WriteAllRecords(
      &env, "in", Drain(MakeWorkload(Dataset::kRandom, wl).get())));
  ExternalSortOptions options = RunGenThreadsOptions(
      RunGenAlgorithm::kTwoWayReplacementSelection, 3, RunGenExecutor());
  options.fan_in = 1;  // poison: run generation succeeds, the merge fails
  ExternalSorter sorter(&env, options);
  FileRecordSource source(&env, "in", options.block_bytes);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsInvalidArgument());
  EXPECT_EQ(env.FileCount(), 1u);
  EXPECT_TRUE(env.FileExists("in"));
}

// Env that fails one write of a sort with an IOError. Writes —
// WritableFile::Append and RandomRWFile::WriteAt — are counted across every
// file in the order they happen. Unarmed, it only counts.
class FailNthWriteEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  /// Resets the count and fails write `n` (0: none) or, given a path, the
  /// write that ends `path` at byte `end`.
  void Arm(uint64_t n, std::string path = "", uint64_t end = 0) {
    writes_ = 0;
    fail_at_ = n;
    end_path_ = std::move(path);
    end_bytes_ = end;
  }

  uint64_t writes() const { return writes_.load(); }

  Status Before(const IoOp& op) override {
    if (op.kind == IoOpKind::kWrite &&
        (writes_.fetch_add(1) + 1 == fail_at_ ||
         (op.path == end_path_ && op.offset + op.bytes == end_bytes_))) {
      return Status::IOError("injected write failure: " + op.path);
    }
    return Status::OK();
  }

 private:
  std::atomic<uint64_t> writes_{0};
  uint64_t fail_at_ = 0;
  std::string end_path_;
  uint64_t end_bytes_ = 0;
};

// A failed write anywhere in a sort — run files, intermediate merges, the
// output — fails the sort with that IOError and leaves only the input
// behind. The faults land on the 1st, 2nd, a third and a half of the
// sort's writes, counted in an unfaulted sort of the same configuration,
// and on the write that ends the output (its last block, whichever
// partition writes it). The io_uring rows fail sorts whose ring handles
// still have writes in flight; they are skipped where io_uring is not.
TEST(ExternalSorterTest, WriteErrorFailsTheSort) {
  WorkloadOptions wl;
  wl.num_records = 8000;
  wl.seed = 23;
  const std::vector<Key> input =
      Drain(MakeWorkload(Dataset::kRandom, wl).get());
  IoUringEnv uring_env;
  const testing::ScopedTempDir temp_dir;
  for (const bool uring : {false, true}) {
    if (uring && !IoUringEnv::IsSupported()) continue;
    for (RunGenAlgorithm algorithm :
         {RunGenAlgorithm::kTwoWayReplacementSelection,
          RunGenAlgorithm::kLoadSortStore}) {
      for (const bool pooled : {false, true}) {
        SCOPED_TRACE(std::string(RunGenAlgorithmName(algorithm)) +
                     (pooled ? " pooled" : " serial") +
                     (uring ? " uring" : " mem"));
        MemEnv mem;
        Env* base = uring ? static_cast<Env*>(&uring_env) : &mem;
        const std::string dir = uring ? temp_dir.path() : "mem";
        ExternalSortOptions options = RunGenThreadsOptions(
            algorithm, pooled ? 2 : 1, pooled ? RunGenExecutor() : nullptr);
        options.parallel.final_merge_threads = pooled ? 2 : 1;
        options.temp_dir = dir;
        ASSERT_TWRS_OK(WriteAllRecords(base, dir + "/in", input));
        FailNthWriteEnv env(base);
        const auto sort = [&] {
          ExternalSorter sorter(&env, options);
          FileRecordSource source(&env, dir + "/in", options.block_bytes);
          return sorter.Sort(&source, dir + "/out", nullptr);
        };
        env.Arm(0);
        ASSERT_TWRS_OK(sort());
        const uint64_t writes = env.writes();
        ASSERT_GT(writes, 6u);
        ASSERT_TWRS_OK(base->RemoveFile(dir + "/out"));
        for (const uint64_t n :
             {uint64_t{1}, uint64_t{2}, writes / 3, writes / 2, uint64_t{0}}) {
          SCOPED_TRACE(n == 0 ? std::string("write ending the output")
                              : "write " + std::to_string(n) + " of " +
                                    std::to_string(writes));
          if (n == 0) {
            env.Arm(0, dir + "/out", input.size() * kRecordBytes);
          } else {
            env.Arm(n);
          }
          const Status status = sort();
          EXPECT_TRUE(status.IsIOError()) << status.ToString();
          EXPECT_NE(status.message().find("injected write failure"),
                    std::string::npos)
              << status.ToString();
          std::vector<std::string> left;
          ASSERT_TWRS_OK(base->ListDir(dir, &left));
          EXPECT_EQ(left, std::vector<std::string>{"in"});
        }
      }
    }
  }
}

// More generators than pool workers: the caller's waits are
// work-helping, so the queued generators still run.
TEST(ExternalSorterRunGenThreadsTest, MoreGeneratorsThanWorkersComplete) {
  WorkloadOptions wl;
  wl.num_records = 10000;
  wl.seed = 50;
  const auto input = Drain(MakeWorkload(Dataset::kMixed, wl).get());
  MemEnv env;
  {
    ExternalSorter sorter(
        &env, RunGenThreadsOptions(RunGenAlgorithm::kTwoWayReplacementSelection,
                                   1, nullptr));
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "serial", nullptr));
  }
  ExecutorOptions pool;
  pool.capacity = 1;
  Executor executor(pool);
  ExternalSorter sorter(
      &env, RunGenThreadsOptions(RunGenAlgorithm::kTwoWayReplacementSelection,
                                 4, &executor));
  VectorSource source(input);
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));
  ASSERT_NE(env.FileContents("out"), nullptr);
  EXPECT_TRUE(*env.FileContents("out") == *env.FileContents("serial"));
}

// Records and bytes are counted once, however many generators read.
TEST(ExternalSorterRunGenThreadsTest, ProgressCountsAreExact) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 10007;  // not a multiple of any batch or block
  wl.seed = 26;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ASSERT_TWRS_OK(WriteAllRecords(&env, "in", input));
  for (const GeneratorCase& generator : EveryGenerator()) {
    SCOPED_TRACE(generator.name);
    ProgressCounters progress;
    ExternalSortOptions options = RunGenThreadsOptions(
        generator.algorithm, 4, RunGenExecutor());
    options.memory_records = 1000;
    options.fan_in = 16;
    options.progress = &progress;
    ExternalSorter sorter(&env, options);
    FileRecordSource source(&env, "in", options.block_bytes);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    const JobProgress done = progress.Snapshot();
    EXPECT_EQ(done.records_ingested, input.size());
    EXPECT_EQ(result.run_gen.total_records, input.size());
    EXPECT_EQ(done.records_merged, result.merge.records_written);
    EXPECT_EQ(done.bytes_read, result.bytes_read);
    EXPECT_EQ(done.bytes_written, result.bytes_written);
  }
}

TEST(VerifySortedFileTest, DetectsDisorder) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {3, 1, 2}));
  EXPECT_TRUE(VerifySortedFile(&env, "f", nullptr, nullptr).IsCorruption());
}

TEST(VerifySortedFileTest, DetectsDisorderedTailAfterLongPrefix) {
  MemEnv env;
  std::vector<Key> keys;
  for (Key k = 0; k < 1000; ++k) keys.push_back(k);
  keys.push_back(500);  // out of order only at the very end
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", keys));
  EXPECT_TRUE(VerifySortedFile(&env, "f", nullptr, nullptr).IsCorruption());
}

TEST(VerifySortedFileTest, EmptyFile) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {}));
  uint64_t count = 99;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "f", &count, &checksum));
  EXPECT_EQ(count, 0u);
  EXPECT_TRUE(checksum == KeyChecksum());
}

TEST(VerifySortedFileTest, SingleRecord) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {-7}));
  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "f", &count, &checksum));
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(checksum == ChecksumOf({-7}));
}

TEST(VerifySortedFileTest, DuplicateKeysAreSorted) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {1, 1, 1, 2, 2}));
  uint64_t count = 0;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "f", &count, nullptr));
  EXPECT_EQ(count, 5u);
}

TEST(VerifySortedFileTest, MissingFileIsAnError) {
  MemEnv env;
  EXPECT_FALSE(VerifySortedFile(&env, "absent", nullptr, nullptr).ok());
}

// ------------------------------------------------------- io_uring backend

TEST(IoBackendSortTest, UringSortIsByteIdenticalToPosix) {
  if (!IoUringEnv::IsSupported()) {
    GTEST_SKIP() << "io_uring unavailable: "
                 << IoUringEnv::UnsupportedReason();
  }
  // The acceptance bar of the uring backend: same input, same options,
  // different backend — the output files must be byte-identical, not just
  // both sorted permutations.
  PosixEnv posix;
  IoUringEnv uring;
  const testing::ScopedTempDir temp_dir;
  const std::string& dir = temp_dir.path();
  ASSERT_TWRS_OK(posix.CreateDirIfMissing(dir));
  // Serial on mixed input, then pooled on random input with a 2-way
  // partitioned final merge: the second case writes the output's ranges
  // through RangeWritableFile, over uring's positioned writes on one side
  // and posix pwrite on the other.
  const struct {
    Dataset dataset;
    size_t threads;
  } cases[] = {{Dataset::kMixed, 0}, {Dataset::kRandom, 2}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.threads);
    WorkloadOptions wl;
    wl.num_records = 20000;
    wl.seed = 99;
    auto input = Drain(MakeWorkload(c.dataset, wl).get());
    std::string outputs[2];
    Env* const envs[2] = {&posix, &uring};
    for (int i = 0; i < 2; ++i) {
      ExternalSortOptions options;
      options.memory_records = 512;
      options.fan_in = 4;
      options.temp_dir = dir;
      options.block_bytes = 4096;
      options.parallel.worker_threads = c.threads;
      options.parallel.final_merge_threads = c.threads > 0 ? 2 : 1;
      ExternalSorter sorter(envs[i], options);
      outputs[i] = dir + "/out_" + std::to_string(i) + "_" +
                   std::to_string(c.threads);
      VectorSource source(input);
      ExternalSortResult result;
      ASSERT_TWRS_OK(sorter.Sort(&source, outputs[i], &result));
      EXPECT_EQ(result.output_records, input.size());
      // Several runs reach the final merge, so the pooled case partitions.
      if (c.threads > 0) {
        EXPECT_GT(result.run_gen.num_runs(), 4u);
      }
    }

    std::vector<Key> via_posix, via_uring;
    ASSERT_TWRS_OK(ReadAllRecords(&posix, outputs[0], &via_posix));
    ASSERT_TWRS_OK(ReadAllRecords(&posix, outputs[1], &via_uring));
    EXPECT_TRUE(via_posix == via_uring)
        << "posix and uring sorts diverged on identical input";
    uint64_t count = 0;
    KeyChecksum checksum;
    ASSERT_TWRS_OK(VerifySortedFile(&posix, outputs[1], &count, &checksum));
    EXPECT_EQ(count, input.size());
    EXPECT_TRUE(checksum == ChecksumOf(input));
  }
}

// Tracks the peak number of open handles holding a pooled ring: the write
// handles. NewSequentialFile and NewRandomReadFile are posix reads and
// hold none. IoUringEnv takes a write handle's ring inside the open
// (building one when the pool is empty, which is slow) and returns it
// inside Close() or the destructor. A handle counts from before its open
// until after its close, so it counts the whole time it holds a ring.
class RingHandlePeakEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  /// The peak since the last call; the next peak starts from what is open.
  uint64_t TakePeak() {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t peak = peak_;
    peak_ = open_;
    return peak;
  }

  Status Before(const IoOp& op) override {
    if (op.kind == IoOpKind::kOpen && HoldsRing(op)) {
      std::lock_guard<std::mutex> lock(mu_);
      peak_ = std::max(peak_, ++open_);
    }
    return Status::OK();
  }

  void After(const IoOp& op, const Status& status) override {
    if (HoldsRing(op) && ((op.kind == IoOpKind::kOpen && !status.ok()) ||
                          op.kind == IoOpKind::kClose)) {
      std::lock_guard<std::mutex> lock(mu_);
      --open_;
    }
  }

 private:
  static bool HoldsRing(const IoOp& op) {
    return op.opened_by != OpenMethod::kNewSequentialFile &&
           op.opened_by != OpenMethod::kNewRandomReadFile;
  }

  std::mutex mu_;
  uint64_t open_ = 0;
  uint64_t peak_ = 0;
};

TEST(IoBackendSortTest, RepeatedUringSortReusesEveryRing) {
  if (!IoUringEnv::IsSupported()) {
    GTEST_SKIP() << "io_uring unavailable: "
                 << IoUringEnv::UnsupportedReason();
  }
  // The ring pool keeps every released ring, so a sort creates a ring only
  // when it holds more rings at once than any earlier sort on the Env did.
  // How many it holds depends on when the pool runs the run sink's stream
  // writers and the two final-merge partitions' writers, so each sort's
  // peak is measured, not assumed. Only write handles hold a ring, so the
  // 16-way merge's inputs add none.
  IoUringEnv uring;
  RingHandlePeakEnv env(&uring);
  const testing::ScopedTempDir temp_dir;
  const std::string& dir = temp_dir.path();
  ASSERT_TWRS_OK(env.CreateDirIfMissing(dir));
  WorkloadOptions wl;
  wl.num_records = 100000;
  wl.seed = 7;
  const auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  MetricsRegistry metrics;
  MonotonicCounter* created = metrics.Counter("io.uring.rings_created");
  MonotonicCounter* reused = metrics.Counter("io.uring.ring_reuses");
  uint64_t created_by[2] = {0, 0};
  uint64_t reused_by[2] = {0, 0};
  uint64_t peak[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    PublishIoUringCounters(&metrics);
    const uint64_t created_before = created->value();
    const uint64_t reused_before = reused->value();
    ExternalSortOptions options;
    options.memory_records = 8192;
    options.fan_in = 16;
    options.block_bytes = 4096;
    options.temp_dir = dir;
    options.parallel.worker_threads = 2;
    options.parallel.final_merge_threads = 2;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    const std::string out = dir + "/out" + std::to_string(i);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, out, &result));
    EXPECT_EQ(result.merge.merge_steps, 1u);
    PublishIoUringCounters(&metrics);
    created_by[i] = created->value() - created_before;
    reused_by[i] = reused->value() - reused_before;
    peak[i] = env.TakePeak();
    uint64_t count = 0;
    KeyChecksum checksum;
    ASSERT_TWRS_OK(VerifySortedFile(&uring, out, &count, &checksum));
    EXPECT_EQ(count, input.size());
    EXPECT_TRUE(checksum == ChecksumOf(input));
  }
  EXPECT_GT(created_by[0], 0u);
  EXPECT_EQ(created_by[0], peak[0]);
  // At most the run sink's four stream writers are open at once.
  EXPECT_LE(peak[0], 4u);
  EXPECT_EQ(created_by[1], peak[1] > peak[0] ? peak[1] - peak[0] : 0)
      << "peaks " << peak[0] << " then " << peak[1];
  EXPECT_GT(reused_by[1], 0u);
}

TEST(VerifySortedFileTest, TruncatedTailIsCorruption) {
  MemEnv env;
  // Two whole records followed by a torn half-record, as a crashed writer
  // would leave behind.
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(env.NewWritableFile("f", &file));
  uint8_t record[kRecordBytes];
  EncodeKey(1, record);
  ASSERT_TWRS_OK(file->Append(record, kRecordBytes));
  EncodeKey(2, record);
  ASSERT_TWRS_OK(file->Append(record, kRecordBytes));
  ASSERT_TWRS_OK(file->Append(record, kRecordBytes / 2));
  ASSERT_TWRS_OK(file->Close());
  EXPECT_TRUE(VerifySortedFile(&env, "f", nullptr, nullptr).IsCorruption());
}

}  // namespace
}  // namespace twrs
