// End-to-end scenarios across modules, including the headline comparisons
// the paper's Chapter 6 is built on.

#include <gtest/gtest.h>

#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/sim_disk_env.h"
#include "merge/external_sorter.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::ChecksumOf;
using testing::Drain;

ExternalSortResult SortWith(Env* env, RunGenAlgorithm algorithm,
                            Dataset dataset, const std::string& dir,
                            uint64_t records, size_t memory) {
  WorkloadOptions wl;
  wl.num_records = records;
  wl.seed = 2024;
  auto source = MakeWorkload(dataset, wl);

  ExternalSortOptions options;
  options.algorithm = algorithm;
  options.memory_records = memory;
  options.fan_in = 10;
  options.temp_dir = dir + "/" + RunGenAlgorithmName(algorithm) +
                     DatasetName(dataset);
  ExternalSortResult result;
  ExternalSorter sorter(env, options);
  const std::string out = dir + "/out_" + DatasetName(dataset) + "_" +
                          RunGenAlgorithmName(algorithm);
  Status s = sorter.Sort(source.get(), out, &result);
  EXPECT_TRUE(s.ok()) << s.ToString();
  uint64_t count = 0;
  s = VerifySortedFile(env, out, &count, nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(count, result.output_records);
  return result;
}

TEST(IntegrationTest, PosixEndToEndSortIsCorrect) {
  PosixEnv env;
  const testing::ScopedTempDir temp_dir;
  const std::string& dir = temp_dir.path();
  WorkloadOptions wl;
  wl.num_records = 50000;
  wl.seed = 5;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  ExternalSortOptions options;
  options.memory_records = 1000;
  options.temp_dir = dir + "/tmp";
  ExternalSorter sorter(&env, options);
  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, dir + "/out", &result));
  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, dir + "/out", &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == ChecksumOf(input));
  EXPECT_GT(result.run_gen.num_runs(), 20u);  // far beyond one memory
}

TEST(IntegrationTest, ReverseSortedHeadlineResult) {
  // The paper's headline: on reverse-sorted input RS degenerates to
  // memory-sized runs while 2WRS produces a single run (Theorems 3 and 4),
  // which then skips the merge work almost entirely.
  PosixEnv env;
  const testing::ScopedTempDir temp_dir;
  const std::string& dir = temp_dir.path();
  const uint64_t records = 40000;
  const size_t memory = 800;

  auto rs = SortWith(&env, RunGenAlgorithm::kReplacementSelection,
                     Dataset::kReverseSorted, dir, records, memory);
  auto twrs = SortWith(&env, RunGenAlgorithm::kTwoWayReplacementSelection,
                       Dataset::kReverseSorted, dir, records, memory);
  EXPECT_EQ(twrs.run_gen.num_runs(), 1u);
  EXPECT_NEAR(static_cast<double>(rs.run_gen.num_runs()),
              static_cast<double>(records) / memory, 2.0);
  EXPECT_LT(twrs.merge.records_written, rs.merge.records_written);
}

TEST(IntegrationTest, MixedInputGeneratesFarFewerRuns) {
  PosixEnv env;
  const testing::ScopedTempDir temp_dir;
  const std::string& dir = temp_dir.path();
  auto rs = SortWith(&env, RunGenAlgorithm::kReplacementSelection,
                     Dataset::kMixed, dir, 40000, 800);
  auto twrs = SortWith(&env, RunGenAlgorithm::kTwoWayReplacementSelection,
                       Dataset::kMixed, dir, 40000, 800);
  EXPECT_LT(twrs.run_gen.num_runs() * 5, rs.run_gen.num_runs());
}

TEST(IntegrationTest, RandomInputParity) {
  PosixEnv env;
  const testing::ScopedTempDir temp_dir;
  const std::string& dir = temp_dir.path();
  auto rs = SortWith(&env, RunGenAlgorithm::kReplacementSelection,
                     Dataset::kRandom, dir, 40000, 800);
  auto twrs = SortWith(&env, RunGenAlgorithm::kTwoWayReplacementSelection,
                       Dataset::kRandom, dir, 40000, 800);
  const double ratio = static_cast<double>(twrs.run_gen.num_runs()) /
                       static_cast<double>(rs.run_gen.num_runs());
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.2);
}

TEST(IntegrationTest, LoadSortStoreIsTheFloor) {
  // RS and 2WRS both beat Load-Sort-Store's memory-sized runs on random
  // input (§2.1.1: RS runs are at least as large as memory).
  PosixEnv env;
  const testing::ScopedTempDir temp_dir;
  const std::string& dir = temp_dir.path();
  auto lss = SortWith(&env, RunGenAlgorithm::kLoadSortStore, Dataset::kRandom,
                      dir, 40000, 800);
  auto rs = SortWith(&env, RunGenAlgorithm::kReplacementSelection,
                     Dataset::kRandom, dir, 40000, 800);
  EXPECT_GT(lss.run_gen.num_runs(), rs.run_gen.num_runs());
}

TEST(IntegrationTest, SimulatedDiskChargesMergePasses) {
  // The simulated disk model must attribute more I/O time to a sort that
  // performs more merge passes (lower fan-in).
  MemEnv base;
  WorkloadOptions wl;
  wl.num_records = 30000;
  wl.seed = 3;

  auto run_with_fan_in = [&](size_t fan_in) {
    SimDiskEnv env(&base);
    ExternalSortOptions options;
    options.memory_records = 300;
    options.algorithm = RunGenAlgorithm::kLoadSortStore;  // many runs
    options.fan_in = fan_in;
    options.temp_dir = "tmp" + std::to_string(fan_in);
    ExternalSorter sorter(&env, options);
    auto source = MakeWorkload(Dataset::kRandom, wl);
    ExternalSortResult result;
    EXPECT_TRUE(
        sorter.Sort(source.get(), "out" + std::to_string(fan_in), &result)
            .ok());
    return env.model().SimulatedSeconds();
  };

  const double narrow = run_with_fan_in(2);   // many passes
  const double wide = run_with_fan_in(64);    // one pass
  EXPECT_GT(narrow, wide);
}

}  // namespace
}  // namespace twrs
