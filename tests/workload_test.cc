#include "workload/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "io/mem_env.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

using testing::Drain;

WorkloadOptions Base(uint64_t n, bool noise = true) {
  WorkloadOptions wl;
  wl.num_records = n;
  wl.seed = 1;
  wl.add_noise = noise;
  return wl;
}

TEST(WorkloadTest, DatasetNames) {
  EXPECT_STREQ(DatasetName(Dataset::kSorted), "sorted");
  EXPECT_STREQ(DatasetName(Dataset::kReverseSorted), "reverse-sorted");
  EXPECT_STREQ(DatasetName(Dataset::kAlternating), "alternating");
  EXPECT_STREQ(DatasetName(Dataset::kRandom), "random");
  EXPECT_STREQ(DatasetName(Dataset::kMixed), "mixed");
  EXPECT_STREQ(DatasetName(Dataset::kMixedImbalanced), "mixed-imbalanced");
}

TEST(WorkloadTest, AllDatasetsProduceExactCount) {
  for (int d = 0; d < kNumDatasets; ++d) {
    auto source = MakeWorkload(static_cast<Dataset>(d), Base(1234));
    EXPECT_EQ(Drain(source.get()).size(), 1234u) << "dataset " << d;
  }
}

TEST(WorkloadTest, SortedIsSortedEvenWithNoise) {
  // Base keys step by 1000 while noise is at most 1000, so the trend holds.
  auto keys = Drain(MakeWorkload(Dataset::kSorted, Base(5000)).get());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(WorkloadTest, ReverseSortedIsDescending) {
  auto keys = Drain(MakeWorkload(Dataset::kReverseSorted, Base(5000)).get());
  EXPECT_TRUE(std::is_sorted(keys.rbegin(), keys.rend()));
}

TEST(WorkloadTest, NoiseIsBounded) {
  auto clean = Drain(MakeWorkload(Dataset::kSorted, Base(1000, false)).get());
  auto noisy = Drain(MakeWorkload(Dataset::kSorted, Base(1000, true)).get());
  ASSERT_EQ(clean.size(), noisy.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    const Key delta = noisy[i] - clean[i];
    EXPECT_GE(delta, 1);     // §5.2: noise in [1, 1000]
    EXPECT_LE(delta, 1000);
  }
}

TEST(WorkloadTest, SameSeedReproducesStream) {
  auto a = Drain(MakeWorkload(Dataset::kRandom, Base(2000)).get());
  auto b = Drain(MakeWorkload(Dataset::kRandom, Base(2000)).get());
  EXPECT_EQ(a, b);
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  WorkloadOptions w1 = Base(2000);
  WorkloadOptions w2 = Base(2000);
  w2.seed = 2;
  auto a = Drain(MakeWorkload(Dataset::kRandom, w1).get());
  auto b = Drain(MakeWorkload(Dataset::kRandom, w2).get());
  EXPECT_NE(a, b);
}

TEST(WorkloadTest, AlternatingHasRequestedSections) {
  WorkloadOptions wl = Base(10000, /*noise=*/false);
  wl.sections = 10;
  auto keys = Drain(MakeWorkload(Dataset::kAlternating, wl).get());
  // Count direction changes; 10 sections have 9 boundaries.
  int direction_changes = 0;
  int direction = 0;
  for (size_t i = 1; i < keys.size(); ++i) {
    const int d = keys[i] > keys[i - 1] ? 1 : (keys[i] < keys[i - 1] ? -1 : 0);
    if (d != 0 && direction != 0 && d != direction) ++direction_changes;
    if (d != 0) direction = d;
  }
  EXPECT_EQ(direction_changes, 9);
}

TEST(WorkloadTest, AlternatingSpansFullRange) {
  WorkloadOptions wl = Base(10000, /*noise=*/false);
  wl.sections = 4;
  auto keys = Drain(MakeWorkload(Dataset::kAlternating, wl).get());
  const auto [min_it, max_it] = std::minmax_element(keys.begin(), keys.end());
  EXPECT_EQ(*min_it, 0);
  EXPECT_EQ(*max_it, static_cast<Key>((wl.num_records - 1) * 1000));
}

TEST(WorkloadTest, MixedTrendsDiverge) {
  // Even records rise from the split point, odd records fall from it
  // (§4.5's shape). Check monotonicity of each interleaved branch.
  WorkloadOptions wl = Base(4000, /*noise=*/false);
  auto keys = Drain(MakeWorkload(Dataset::kMixed, wl).get());
  std::vector<Key> up;
  std::vector<Key> down;
  for (size_t i = 0; i < keys.size(); ++i) {
    (i % 2 == 0 ? up : down).push_back(keys[i]);
  }
  EXPECT_TRUE(std::is_sorted(up.begin(), up.end()));
  EXPECT_TRUE(std::is_sorted(down.rbegin(), down.rend()));
  EXPECT_GT(up.front(), down.back());  // branches never cross
}

TEST(WorkloadTest, MixedImbalancedIsOneUpThreeDown) {
  WorkloadOptions wl = Base(4000, /*noise=*/false);
  auto keys = Drain(MakeWorkload(Dataset::kMixedImbalanced, wl).get());
  std::vector<Key> up;
  std::vector<Key> down;
  for (size_t i = 0; i < keys.size(); ++i) {
    (i % 4 == 0 ? up : down).push_back(keys[i]);
  }
  EXPECT_TRUE(std::is_sorted(up.begin(), up.end()));
  EXPECT_TRUE(std::is_sorted(down.rbegin(), down.rend()));
  EXPECT_EQ(down.size(), 3 * up.size());
}

TEST(WorkloadTest, RandomCoversRangeUniformly) {
  WorkloadOptions wl = Base(20000);
  auto keys = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  const Key range = 20000 * 1000;
  int low_half = 0;
  for (Key k : keys) {
    EXPECT_GE(k, 0);
    EXPECT_LE(k, range + 1000);
    if (k < range / 2) ++low_half;
  }
  EXPECT_NEAR(low_half, 10000, 500);
}

// FNV-1a 64 over the little-endian bytes of every key.
uint64_t Fnv1a64(const std::vector<Key>& keys) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const Key key : keys) {
    const uint64_t bits = static_cast<uint64_t>(key);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

TEST(WorkloadTest, StreamsMatchPinnedHashes) {
  // 100000 records of every family at seed 1 and default options, hashed
  // from the record-at-a-time generators these replaced, so that a change
  // to a generator's stream cannot slip through.
  const uint64_t expected[kNumDatasets] = {
      0x3aa0664936ce030cull,  // sorted
      0xe502504dd9fb17ceull,  // reverse-sorted
      0x3306560b1f385eddull,  // alternating
      0xc936de19a67a2989ull,  // random
      0x707d49bc7fc57d0full,  // mixed
      0x81308998d328d6a2ull,  // mixed-imbalanced
  };
  for (int d = 0; d < kNumDatasets; ++d) {
    const Dataset dataset = static_cast<Dataset>(d);
    WorkloadOptions wl;
    wl.num_records = 100000;
    wl.seed = 1;
    const auto keys = Drain(MakeWorkload(dataset, wl).get());
    ASSERT_EQ(keys.size(), wl.num_records);
    EXPECT_EQ(Fnv1a64(keys), expected[d]) << DatasetName(dataset);
  }
}

TEST(WorkloadTest, FileRoundTrip) {
  MemEnv env;
  WorkloadOptions wl = Base(500);
  ASSERT_TWRS_OK(WriteWorkloadToFile(&env, Dataset::kMixed, wl, "data"));
  FileRecordSource source(&env, "data");
  auto from_file = Drain(&source);
  ASSERT_TWRS_OK(source.status());
  auto direct = Drain(MakeWorkload(Dataset::kMixed, wl).get());
  EXPECT_EQ(from_file, direct);
}

TEST(WorkloadTest, FileSourceMissingFile) {
  MemEnv env;
  FileRecordSource source(&env, "missing");
  Key k;
  EXPECT_FALSE(source.Next(&k));
  EXPECT_FALSE(source.status().ok());
  size_t n = 1;
  EXPECT_FALSE(source.Read(&k, 1, &n).ok());
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(source.status().ok());
}

TEST(WorkloadTest, ReadsFillEveryBatchUntilTheEnd) {
  MemEnv env;
  WorkloadOptions wl = Base(1001);
  ASSERT_TWRS_OK(WriteWorkloadToFile(&env, Dataset::kRandom, wl, "data"));
  const auto direct = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  // A file source (block reads of 32 records) and a generator source
  // deliver the same stream, every read but the last one full.
  FileRecordSource file_source(&env, "data", 256);
  std::unique_ptr<RecordSource> generated =
      MakeWorkload(Dataset::kRandom, wl);
  for (RecordSource* source : {static_cast<RecordSource*>(&file_source),
                               generated.get()}) {
    std::vector<Key> got;
    Key batch[77];
    for (size_t n = 77; n == 77;) {
      ASSERT_TWRS_OK(source->Read(batch, 77, &n));
      got.insert(got.end(), batch, batch + n);
    }
    EXPECT_EQ(got, direct);
  }
}

TEST(WorkloadTest, SourcesInterleaveNextAndReadInOrder) {
  MemEnv env;
  WorkloadOptions wl = Base(5003);
  ASSERT_TWRS_OK(WriteWorkloadToFile(&env, Dataset::kRandom, wl, "data"));
  const auto direct = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (const size_t block_bytes : {size_t{256}, kDefaultBlockBytes}) {
    SCOPED_TRACE(block_bytes);
    // Runs of Next calls stop inside the read-ahead, so the Read that
    // follows must first serve what Next left read ahead. The rule lives
    // in the base class, so a file and a generator source both keep it.
    FileRecordSource file_source(&env, "data", block_bytes);
    std::unique_ptr<RecordSource> generated =
        MakeWorkload(Dataset::kRandom, wl);
    for (RecordSource* source : {static_cast<RecordSource*>(&file_source),
                                 generated.get()}) {
      Random rng(block_bytes);
      std::vector<Key> got;
      std::vector<Key> batch(2000);
      for (bool more = true; more;) {
        if (rng.Uniform(2) == 0) {
          for (uint64_t i = 1 + rng.Uniform(1500); i > 0 && more; --i) {
            Key key;
            more = source->Next(&key);
            if (more) got.push_back(key);
          }
        } else {
          size_t n = 0;
          ASSERT_TWRS_OK(source->Read(batch.data(),
                                      1 + rng.Uniform(batch.size()), &n));
          got.insert(got.end(), batch.begin(), batch.begin() + n);
          more = n > 0;
        }
      }
      ASSERT_TWRS_OK(source->status());
      EXPECT_EQ(got, direct);
    }
  }
}

TEST(WorkloadTest, FileSourceNextDeliversRecordsBeforeAReadError) {
  const size_t block_bytes = 256;  // 32 records a read
  WorkloadOptions wl = Base(5000);
  const auto direct = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  // Fail inside the first decoded block and well past it.
  for (const size_t fail_at_record : {size_t{1000}, size_t{2500}}) {
    SCOPED_TRACE(fail_at_record);
    testing::FailingInputReadEnv env("data", fail_at_record * kRecordBytes);
    ASSERT_TWRS_OK(WriteAllRecords(&env, "data", direct));
    FileRecordSource source(&env, "data", block_bytes);
    std::vector<Key> got;
    Key key;
    while (source.Next(&key)) got.push_back(key);
    // Every whole read before the failing one is delivered, then the
    // stream ends with the error, on both paths and for good.
    const size_t delivered =
        fail_at_record * kRecordBytes / block_bytes * block_bytes /
        kRecordBytes;
    EXPECT_EQ(got, std::vector<Key>(direct.begin(),
                                    direct.begin() + delivered));
    EXPECT_TRUE(source.status().IsIOError()) << source.status().ToString();
    EXPECT_FALSE(source.Next(&key));
    size_t n = 1;
    EXPECT_TRUE(source.Read(&key, 1, &n).IsIOError());
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(source.status().IsIOError());
  }
}

}  // namespace
}  // namespace twrs
