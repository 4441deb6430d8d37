#include "io/sim_disk_env.h"

#include <gtest/gtest.h>

#include "io/mem_env.h"
#include "io/record_io.h"
#include "merge/external_sorter.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

TEST(DiskModelTest, SequentialAccessPaysOneSeek) {
  DiskModel model;
  model.Access(0, 0, 100);
  model.Access(0, 100, 100);
  model.Access(0, 200, 50);
  EXPECT_EQ(model.seeks(), 1u);  // only the initial positioning
  EXPECT_EQ(model.bytes_transferred(), 250u);
}

TEST(DiskModelTest, FileSwitchCostsASeek) {
  DiskModel model;
  model.Access(0, 0, 10);
  model.Access(1, 0, 10);
  model.Access(0, 10, 10);  // back to file 0, contiguous with before
  EXPECT_EQ(model.seeks(), 3u);
}

TEST(DiskModelTest, BackwardJumpCostsASeek) {
  DiskModel model;
  model.Access(0, 100, 10);
  model.Access(0, 0, 10);  // neither forward- nor backward-contiguous
  EXPECT_EQ(model.seeks(), 2u);
}

TEST(DiskModelTest, BackwardContiguousWritesAreCacheAbsorbed) {
  // Appendix A.1: pages written back-to-front land in the OS write cache,
  // so the reverse run writer is not charged a seek per page.
  DiskModel model;
  model.Access(0, 100, 10);
  model.Access(0, 90, 10);  // ends exactly where the previous began
  model.Access(0, 80, 10);
  EXPECT_EQ(model.seeks(), 1u);
}

TEST(DiskModelTest, SimulatedTimeCombinesSeekAndTransfer) {
  DiskModelConfig config;
  config.seek_seconds = 0.01;
  config.bandwidth_bytes_per_second = 1000.0;
  DiskModel model(config);
  model.Access(0, 0, 500);
  EXPECT_DOUBLE_EQ(model.SimulatedSeconds(), 0.01 + 0.5);
}

TEST(DiskModelTest, ResetClearsState) {
  DiskModel model;
  model.Access(0, 0, 10);
  model.Reset();
  EXPECT_EQ(model.seeks(), 0u);
  EXPECT_EQ(model.bytes_transferred(), 0u);
  EXPECT_DOUBLE_EQ(model.SimulatedSeconds(), 0.0);
}

TEST(DiskModelTest, ResetForgetsBackwardContiguity) {
  // Regression: Reset left last_start_offset_ stale, so an access ending at
  // the pre-Reset start offset was mistaken for a backward-contiguous
  // (cache-absorbed) write. last_file_ is reset to a sentinel, but pinning
  // the offsets too keeps the invariant local instead of coupled.
  DiskModel model;
  model.Access(7, 100, 10);
  model.Reset();
  model.Access(7, 90, 10);  // ends at 100 = pre-Reset start; still a seek
  EXPECT_EQ(model.seeks(), 1u);
}

TEST(SimDiskEnvTest, ForwardsDataCorrectly) {
  MemEnv base;
  SimDiskEnv env(&base);
  std::vector<Key> keys = {5, 4, 3};
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", keys));
  std::vector<Key> back;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "f", &back));
  EXPECT_EQ(back, keys);
  EXPECT_GT(env.model().bytes_transferred(), 0u);
}

TEST(SimDiskEnvTest, InterleavedStreamsSeekMoreThanOneStream) {
  MemEnv base;

  // One stream written alone: sequential.
  SimDiskEnv solo(&base);
  {
    std::unique_ptr<WritableFile> w;
    ASSERT_TWRS_OK(solo.NewWritableFile("a", &w));
    for (int i = 0; i < 100; ++i) ASSERT_TWRS_OK(w->Append("x", 1));
    ASSERT_TWRS_OK(w->Close());
  }
  const uint64_t solo_seeks = solo.model().seeks();

  // Two streams interleaved: the head ping-pongs.
  SimDiskEnv duo(&base);
  {
    std::unique_ptr<WritableFile> w1;
    std::unique_ptr<WritableFile> w2;
    ASSERT_TWRS_OK(duo.NewWritableFile("b", &w1));
    ASSERT_TWRS_OK(duo.NewWritableFile("c", &w2));
    for (int i = 0; i < 50; ++i) {
      ASSERT_TWRS_OK(w1->Append("x", 1));
      ASSERT_TWRS_OK(w2->Append("y", 1));
    }
    ASSERT_TWRS_OK(w1->Close());
    ASSERT_TWRS_OK(w2->Close());
  }
  EXPECT_EQ(solo_seeks, 1u);
  EXPECT_EQ(duo.model().seeks(), 100u);
  EXPECT_GT(duo.model().SimulatedSeconds(), solo.model().SimulatedSeconds());
}

TEST(SimDiskEnvTest, MetadataOperationsForward) {
  MemEnv base;
  SimDiskEnv env(&base);
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env.NewWritableFile("f", &w));
  ASSERT_TWRS_OK(w->Append("ab", 2));
  ASSERT_TWRS_OK(w->Close());
  EXPECT_TRUE(env.FileExists("f"));
  uint64_t size = 0;
  ASSERT_TWRS_OK(env.GetFileSize("f", &size));
  EXPECT_EQ(size, 2u);
  ASSERT_TWRS_OK(env.RemoveFile("f"));
  EXPECT_FALSE(base.FileExists("f"));
}

// Pins the model's charges and the sorter's byte counts on two whole serial
// sorts of one fixed input, read from the simulated disk: a 2WRS sort,
// whose reverse runs are written back to front with WriteAt, and an LSS
// sort, whose runs are all appended. Both sorts merge in more than one
// pass, so intermediate merges are charged too. A reverse file's lowest
// data page is written from its first record on, not as a whole page.
TEST(SimDiskEnvTest, WholeSortChargesArePinned) {
  struct Case {
    RunGenAlgorithm algorithm;
    uint64_t seeks;
    uint64_t bytes_transferred;
    uint64_t bytes_read;
    uint64_t bytes_written;
  };
  const Case cases[] = {
      {RunGenAlgorithm::kTwoWayReplacementSelection, 250, 929728, 304800,
       464928},
      {RunGenAlgorithm::kLoadSortStore, 169, 1050624, 365312, 525312},
  };
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 61;
  const std::vector<Key> input =
      testing::Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (const Case& c : cases) {
    SCOPED_TRACE(RunGenAlgorithmName(c.algorithm));
    MemEnv base;
    ASSERT_TWRS_OK(WriteAllRecords(&base, "in", input));
    SimDiskEnv env(&base);
    ExternalSortOptions options;
    options.algorithm = c.algorithm;
    options.memory_records = 1024;
    options.fan_in = 4;
    options.block_bytes = 4096;
    options.temp_dir = "tmp";
    ExternalSorter sorter(&env, options);
    FileRecordSource source(&env, "in", options.block_bytes);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    EXPECT_GT(result.merge.merge_steps, 1u);
    EXPECT_EQ(env.model().seeks(), c.seeks);
    EXPECT_EQ(env.model().bytes_transferred(), c.bytes_transferred);
    EXPECT_EQ(result.bytes_read, c.bytes_read);
    EXPECT_EQ(result.bytes_written, c.bytes_written);
  }
}

}  // namespace
}  // namespace twrs
