// Seeded differential oracle: every sort mode against std::sort.
//
// One case per (algorithm, run-generation threads, final-merge threads,
// limit, order). Each case takes its input family and size from its own
// seed, sorts on a MemEnv, and checks the output against std::sort of the
// same input, truncated to the limit's end for top-K. A failure names the
// seed and the mode, so a case can be replayed on its own. The sweep's
// size is fixed by the constants below.

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

  std::string Describe() const {
    std::ostringstream out;
    out << "seed=" << seed << " algorithm=" << RunGenAlgorithmName(algorithm)
        << " run_generation_threads=" << run_generation_threads
        << " final_merge_threads=" << final_merge_threads
        << " limit=" << limit << " order=" << SelectOrderName(order)
        << " family=" << DatasetName(dataset)
        << " records=" << num_records;
    return out.str();
  }
};

ExternalSortOptions OptionsFor(const OracleCase& c) {
  ExternalSortOptions options;
  options.algorithm = c.algorithm;
  options.memory_records = kMemoryRecords;
  options.twrs = TwoWayOptions::Recommended(kMemoryRecords, c.seed);
  options.fan_in = 4;  // several merge passes
  options.temp_dir = "tmp";
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

void RunCase(OracleCase c) {
  // Each (algorithm, threads) group of six limit/order cases sees every
  // family once, and the cycle shifts by one per group, so every
  // limit/order case meets every family across the sweep.
  const uint64_t index = c.seed - kBaseSeed;
  c.dataset = static_cast<Dataset>((index + index / kNumDatasets) %
                                   kNumDatasets);
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

  MemEnv env;
  ExternalSorter sorter(&env, OptionsFor(c));
  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));

  const std::vector<Key> expected = Reference(input, c.limit, c.order);
  std::vector<Key> got;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
  EXPECT_EQ(result.output_records, expected.size());
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "output differs from std::sort";
  EXPECT_EQ(env.FileCount(), 1u) << "scratch files left behind";
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
            RunCase({algorithm, run_generation_threads, final_merge_threads,
                     limit, order, seed++});
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace twrs
