#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"

namespace twrs {
namespace simd {
namespace {

// Input families every kernel is exercised on, at sizes chosen to hit the
// empty, sub-vector, exact-vector-multiple, and odd-tail paths.
std::vector<size_t> TestSizes() {
  return {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33,
          63, 64, 100, 255, 256, 1000, 4096, 5000};
}

enum class Family { kRandom, kSorted, kReverse, kDupHeavy, kExtremes };

std::vector<Key> MakeInput(Family family, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(n);
  std::uniform_int_distribution<Key> wide(std::numeric_limits<Key>::min(),
                                          std::numeric_limits<Key>::max());
  std::uniform_int_distribution<Key> narrow(-3, 3);
  for (size_t i = 0; i < n; ++i) {
    switch (family) {
      case Family::kRandom:
        keys[i] = wide(rng);
        break;
      case Family::kSorted:
      case Family::kReverse:
        keys[i] = static_cast<Key>(i) - static_cast<Key>(n / 2);
        break;
      case Family::kDupHeavy:
        keys[i] = narrow(rng);
        break;
      case Family::kExtremes: {
        const int pick = static_cast<int>(wide(rng) & 3);
        keys[i] = pick == 0   ? std::numeric_limits<Key>::min()
                  : pick == 1 ? std::numeric_limits<Key>::max()
                  : pick == 2 ? 0
                              : wide(rng);
        break;
      }
    }
  }
  if (family == Family::kReverse) std::reverse(keys.begin(), keys.end());
  return keys;
}

std::vector<Family> AllFamilies() {
  return {Family::kRandom, Family::kSorted, Family::kReverse,
          Family::kDupHeavy, Family::kExtremes};
}

/// Runs every kernel under a pinned dispatch level and checks the output
/// byte-identical to the scalar reference (std::sort for SortKeysBlock).
/// The kAvx2 instantiation skips itself on hosts without AVX2 (the
/// forced-scalar CI variant still runs the kScalar half there).
class SimdKernelsTest : public ::testing::TestWithParam<DispatchLevel> {
 protected:
  void SetUp() override {
    if (GetParam() == DispatchLevel::kAvx2 && !CpuSupportsAvx2()) {
      GTEST_SKIP() << "host lacks AVX2";
    }
    ForceScalar(GetParam() == DispatchLevel::kScalar);
    ASSERT_EQ(ActiveDispatchLevel(), GetParam());
  }

  void TearDown() override { ClearForceScalarOverride(); }
};

TEST_P(SimdKernelsTest, SortKeysBlockMatchesStdSort) {
  // Beyond TestSizes(): the engine's two block sizes (1024-key batches,
  // 64Ki-key LSS loads) and their neighbours, plus the std::sort cutoff.
  std::vector<size_t> sizes = TestSizes();
  for (size_t n : {size_t{1023}, size_t{1024}, size_t{1025}, size_t{65536},
                   size_t{65537}, internal::kRadixSortMinKeys - 1,
                   internal::kRadixSortMinKeys,
                   internal::kRadixSortMinKeys + 1}) {
    sizes.push_back(n);
  }
  const auto check = [](std::vector<Key> keys, const std::string& what) {
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    SortKeysBlock(keys.data(), keys.size());
    ASSERT_EQ(keys, expected) << what << " n=" << keys.size();
  };
  for (size_t n : sizes) {
    for (Family family : AllFamilies()) {
      check(MakeInput(family, n, 17 * n + 1),
            "family=" + std::to_string(static_cast<int>(family)));
    }
    // No digit varies: the radix path has no pass to run.
    check(std::vector<Key>(n, -12345), "all equal");
    // Only the top bit varies: the one pass runs on the sign digit.
    std::mt19937_64 rng(31 * n + 5);
    std::vector<Key> sign_only(n);
    for (Key& key : sign_only) {
      key = (rng() & 1) != 0 ? std::numeric_limits<Key>::min() + 7 : 7;
    }
    check(sign_only, "sign bit only");
  }
}

TEST_P(SimdKernelsTest, PartitionBySplittersMatchesScalar) {
  // Splitter widths straddle the vector path's 64-splitter cap; the
  // duplicate-splitter set pins the upper_bound tie convention.
  const std::vector<std::vector<Key>> splitter_sets = {
      {},
      {0},
      {-100, 0, 100},
      {5, 5, 5},
      MakeInput(Family::kSorted, 31, 3),
      MakeInput(Family::kSorted, 64, 4),
      MakeInput(Family::kSorted, 65, 5),
      MakeInput(Family::kSorted, 200, 6),
  };
  for (const std::vector<Key>& raw : splitter_sets) {
    std::vector<Key> splitters = raw;
    std::sort(splitters.begin(), splitters.end());
    for (Family family : AllFamilies()) {
      for (size_t n : TestSizes()) {
        std::vector<Key> keys = MakeInput(family, n, 29 * n + 7);
        std::vector<uint32_t> got(n, 12345);
        std::vector<uint32_t> expected(n, 54321);
        internal::PartitionBySplittersScalar(keys.data(), n, splitters.data(),
                                             splitters.size(),
                                             expected.data());
        PartitionBySplitters(keys.data(), n, splitters.data(),
                             splitters.size(), got.data());
        ASSERT_EQ(got, expected)
            << "splitters=" << splitters.size() << " n=" << n
            << " family=" << static_cast<int>(family);
      }
    }
  }
}

TEST_P(SimdKernelsTest, EncodeDecodeRoundTripMatchesScalar) {
  for (Family family : AllFamilies()) {
    for (size_t n : TestSizes()) {
      std::vector<Key> keys = MakeInput(family, n, 41 * n + 3);
      std::vector<uint8_t> bytes(n * kRecordBytes, 0xAB);
      std::vector<uint8_t> expected_bytes(n * kRecordBytes, 0xCD);
      internal::EncodeKeysBatchScalar(keys.data(), n, expected_bytes.data());
      EncodeKeysBatch(keys.data(), n, bytes.data());
      ASSERT_EQ(bytes, expected_bytes) << "n=" << n;
      // The byte stream must equal n applications of the per-record codec.
      for (size_t i = 0; i < n; ++i) {
        uint8_t one[kRecordBytes];
        EncodeKey(keys[i], one);
        ASSERT_EQ(0, std::memcmp(one, bytes.data() + i * kRecordBytes,
                                 kRecordBytes));
      }
      std::vector<Key> decoded(n, -1);
      DecodeKeysBatch(bytes.data(), n, decoded.data());
      ASSERT_EQ(decoded, keys) << "n=" << n;
    }
  }
}

TEST_P(SimdKernelsTest, MinIndexNMatchesScalar) {
  for (Family family : AllFamilies()) {
    for (size_t n : TestSizes()) {
      if (n == 0) continue;  // MinIndexN requires n >= 1
      std::vector<Key> keys = MakeInput(family, n, 53 * n + 9);
      const size_t expected = internal::MinIndexNScalar(keys.data(), n);
      ASSERT_EQ(MinIndexN(keys.data(), n), expected)
          << "family=" << static_cast<int>(family) << " n=" << n;
    }
  }
}

TEST_P(SimdKernelsTest, MinIndexNTiesResolveToLowestIndex) {
  // All-equal input: the loser-tree tie-break (lowest way wins) demands
  // index 0 regardless of dispatch level.
  for (size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 16}) {
    std::vector<Key> keys(n, 42);
    EXPECT_EQ(MinIndexN(keys.data(), n), 0u) << "n=" << n;
    if (n >= 6) {
      keys[1] = 7;
      keys[5] = 7;
      EXPECT_EQ(MinIndexN(keys.data(), n), 1u) << "n=" << n;
    }
  }
}

TEST_P(SimdKernelsTest, KernelCallsCountDispatchedLevel) {
  const DispatchLevel level = GetParam();
  const uint64_t before = KernelCalls(Kernel::kSortKeys, level);
  std::vector<Key> keys = MakeInput(Family::kRandom, 64, 99);
  SortKeysBlock(keys.data(), keys.size());
  SortKeysBlock(keys.data(), keys.size());
  EXPECT_EQ(KernelCalls(Kernel::kSortKeys, level), before + 2);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, SimdKernelsTest,
                         ::testing::Values(DispatchLevel::kScalar,
                                           DispatchLevel::kAvx2),
                         [](const ::testing::TestParamInfo<DispatchLevel>& i) {
                           return std::string(DispatchLevelName(i.param));
                         });

TEST(SimdDispatchTest, ForceScalarOverridesAndRestores) {
  ForceScalar(true);
  EXPECT_EQ(ActiveDispatchLevel(), DispatchLevel::kScalar);
  ForceScalar(false);
  EXPECT_EQ(ActiveDispatchLevel(), CpuSupportsAvx2() ? DispatchLevel::kAvx2
                                                     : DispatchLevel::kScalar);
  ClearForceScalarOverride();
}

TEST(SimdDispatchTest, NamesAreStable) {
  EXPECT_STREQ(DispatchLevelName(DispatchLevel::kScalar), "scalar");
  EXPECT_STREQ(DispatchLevelName(DispatchLevel::kAvx2), "avx2");
  EXPECT_STREQ(KernelName(Kernel::kSortKeys), "sort_block");
  EXPECT_STREQ(KernelName(Kernel::kPartition), "partition");
  EXPECT_STREQ(KernelName(Kernel::kEncode), "encode");
  EXPECT_STREQ(KernelName(Kernel::kDecode), "decode");
  EXPECT_STREQ(KernelName(Kernel::kMinIndex), "min_index");
}

TEST(SimdDispatchTest, PublishKernelCountersIsIdempotentPerRegistry) {
  std::vector<Key> keys = MakeInput(Family::kRandom, 32, 7);
  SortKeysBlock(keys.data(), keys.size());

  MetricsRegistry metrics;
  PublishKernelCounters(&metrics);
  const DispatchLevel level = ActiveDispatchLevel();
  const std::string name = std::string("simd.sort_block.") +
                           DispatchLevelName(level) + "_calls";
  const uint64_t total = KernelCalls(Kernel::kSortKeys, level);
  EXPECT_EQ(metrics.Counter(name)->value(), total);

  // Publishing again without new kernel activity must not double-count.
  PublishKernelCounters(&metrics);
  EXPECT_EQ(metrics.Counter(name)->value(), total);

  // New activity flows through as a delta on the next publish.
  SortKeysBlock(keys.data(), keys.size());
  PublishKernelCounters(&metrics);
  EXPECT_EQ(metrics.Counter(name)->value(), total + 1);

  PublishKernelCounters(nullptr);  // must be a safe no-op
}

}  // namespace
}  // namespace simd
}  // namespace twrs
