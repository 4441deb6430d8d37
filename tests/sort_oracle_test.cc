// Seeded differential oracle: every sort mode against std::sort.
//
// One case per (algorithm, run-generation threads, final-merge threads,
// limit, order). Each case takes its input family, size and merge fan-in
// from its own seed, sorts on a MemEnv, and checks the output against
// std::sort of the same input, truncated to the limit's end for top-K. A failure names the
// seed and the mode, so a case can be replayed on its own. A second
// sweep runs 2WRS and LSS on the io_uring backend over a real directory.
// The sweeps' size is fixed by the constants below.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "io/mem_env.h"
#include "io/record_io.h"
#include "io/uring_env.h"
#include "merge/external_sorter.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

constexpr uint64_t kBaseSeed = 20100913;
constexpr uint64_t kMaxRecords = 20000;
constexpr size_t kMemoryRecords = 128;
// Dual-heap selection keeps K <= memory; run pruning takes K > memory.
constexpr uint64_t kLimitBelowMemory = kMemoryRecords / 3;
constexpr uint64_t kLimitAboveMemory = kMemoryRecords * 5;
// Fan-ins 2, 3, 4 and 10 give first merges of every size from 2 to 10.
constexpr size_t kFanIns[] = {2, 3, 4, 10};
constexpr size_t kNumFanIns = sizeof(kFanIns) / sizeof(kFanIns[0]);
// Cases per algorithm: run-generation threads x final-merge threads x
// limits x orders.
constexpr uint64_t kCasesPerAlgorithm = 2 * 2 * 3 * 2;

Executor* OracleExecutor() {
  static Executor* executor = [] {
    ExecutorOptions options;
    options.capacity = 3;
    return new Executor(options);
  }();
  return executor;
}

// std::sort of `input`, cut to the `limit` keys at `order`'s end (0 keeps
// everything), ascending either way.
std::vector<Key> Reference(std::vector<Key> input, uint64_t limit,
                           SelectOrder order) {
  std::sort(input.begin(), input.end());
  if (limit == 0 || limit >= input.size()) return input;
  if (order == SelectOrder::kAscending) {
    input.resize(limit);
  } else {
    input.erase(input.begin(), input.end() - static_cast<ptrdiff_t>(limit));
  }
  return input;
}

struct OracleCase {
  RunGenAlgorithm algorithm;
  size_t run_generation_threads;
  size_t final_merge_threads;
  uint64_t limit;
  SelectOrder order;
  uint64_t seed;
  // Taken from the seed by RunCase.
  Dataset dataset = Dataset::kRandom;
  uint64_t num_records = 0;
  size_t fan_in = 0;

  std::string Describe() const {
    std::ostringstream out;
    out << "seed=" << seed << " algorithm=" << RunGenAlgorithmName(algorithm)
        << " run_generation_threads=" << run_generation_threads
        << " final_merge_threads=" << final_merge_threads
        << " limit=" << limit << " order=" << SelectOrderName(order)
        << " fan_in=" << fan_in
        << " family=" << DatasetName(dataset)
        << " records=" << num_records;
    return out.str();
  }
};

ExternalSortOptions OptionsFor(const OracleCase& c, const std::string& dir) {
  ExternalSortOptions options;
  options.algorithm = c.algorithm;
  options.memory_records = kMemoryRecords;
  options.twrs = TwoWayOptions::Recommended(kMemoryRecords, c.seed);
  options.fan_in = c.fan_in;
  options.temp_dir = dir;
  options.block_bytes = 512;
  options.limit = c.limit;
  options.order = c.order;
  if (c.run_generation_threads > 1 || c.final_merge_threads > 1) {
    options.parallel.worker_threads = 2;
    options.parallel.executor = OracleExecutor();
  }
  options.parallel.run_generation_threads = c.run_generation_threads;
  options.parallel.final_merge_threads = c.final_merge_threads;
  return options;
}

// Sorts the case's input on `env` into `dir`/out, with scratch space in
// `dir`, and checks the output against std::sort.
void RunCase(OracleCase c, Env* env, const std::string& dir) {
  // Each (algorithm, threads) group of six limit/order cases sees every
  // family once, and the cycle shifts by one per group, so every
  // limit/order case meets every family across the sweep.
  const uint64_t index = c.seed - kBaseSeed;
  c.dataset = static_cast<Dataset>((index + index / kNumDatasets) %
                                   kNumDatasets);
  // Each mode meets every fan-in across the four algorithms, and each
  // algorithm meets every fan-in across its modes.
  c.fan_in = kFanIns[(index + index / kCasesPerAlgorithm) % kNumFanIns];
  std::mt19937_64 rng(c.seed);
  c.num_records = rng() % (kMaxRecords + 1);
  SCOPED_TRACE(c.Describe());

  WorkloadOptions wl;
  wl.num_records = c.num_records;
  wl.seed = c.seed;
  wl.sections = 1 + rng() % 16;
  const std::vector<Key> input =
      testing::Drain(MakeWorkload(c.dataset, wl).get());
  ASSERT_EQ(input.size(), c.num_records);

  ExternalSorter sorter(env, OptionsFor(c, dir));
  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, dir + "/out", &result));

  const std::vector<Key> expected = Reference(input, c.limit, c.order);
  std::vector<Key> got;
  ASSERT_TWRS_OK(ReadAllRecords(env, dir + "/out", &got));
  EXPECT_EQ(result.output_records, expected.size());
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "output differs from std::sort";
}

TEST(SortOracleTest, EveryModeMatchesStdSort) {
  const RunGenAlgorithm algorithms[] = {
      RunGenAlgorithm::kReplacementSelection,
      RunGenAlgorithm::kTwoWayReplacementSelection,
      RunGenAlgorithm::kLoadSortStore,
      RunGenAlgorithm::kBatchedReplacementSelection,
  };
  uint64_t seed = kBaseSeed;
  for (RunGenAlgorithm algorithm : algorithms) {
    for (size_t run_generation_threads : {size_t{1}, size_t{3}}) {
      for (size_t final_merge_threads : {size_t{1}, size_t{2}}) {
        for (uint64_t limit :
             {uint64_t{0}, kLimitBelowMemory, kLimitAboveMemory}) {
          for (SelectOrder order :
               {SelectOrder::kAscending, SelectOrder::kDescending}) {
            MemEnv env;
            RunCase({algorithm, run_generation_threads, final_merge_threads,
                     limit, order, seed++},
                    &env, "tmp");
            if (::testing::Test::HasFatalFailure()) return;
            EXPECT_EQ(env.FileCount(), 1u) << "scratch files left behind";
          }
        }
      }
    }
  }
}

// The io_uring backend's write-behind coalesces the 512-byte output blocks
// into 256 KiB writes and sends reverse-run pages out one at a time; every
// serial and partitioned mode must still match std::sort. Seeds continue
// after the MemEnv sweep's.
TEST(SortOracleTest, UringBackendMatchesStdSort) {
  if (!IoUringEnv::IsSupported()) {
    GTEST_SKIP() << "io_uring unavailable: "
                 << IoUringEnv::UnsupportedReason();
  }
  IoUringEnv env;
  const std::string dir = testing::MakeTempDir();
  ASSERT_TWRS_OK(env.CreateDirIfMissing(dir));
  uint64_t seed = kBaseSeed + 4 * kCasesPerAlgorithm;
  for (RunGenAlgorithm algorithm : {RunGenAlgorithm::kTwoWayReplacementSelection,
                                    RunGenAlgorithm::kLoadSortStore}) {
    for (size_t final_merge_threads : {size_t{1}, size_t{2}}) {
      for (uint64_t limit :
           {uint64_t{0}, kLimitBelowMemory, kLimitAboveMemory}) {
        for (SelectOrder order :
             {SelectOrder::kAscending, SelectOrder::kDescending}) {
          RunCase({algorithm, 1, final_merge_threads, limit, order, seed++},
                  &env, dir);
          if (::testing::Test::HasFatalFailure()) return;
          std::vector<std::string> names;
          ASSERT_TWRS_OK(env.ListDir(dir, &names));
          EXPECT_EQ(names, std::vector<std::string>{"out"})
              << "scratch files left behind";
          ASSERT_TWRS_OK(env.RemoveFile(dir + "/out"));
        }
      }
    }
  }
}

}  // namespace
}  // namespace twrs
