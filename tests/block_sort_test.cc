#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/block_sort.h"
#include "core/record.h"
#include "gtest/gtest.h"

namespace twrs {
namespace {

// Input families the block sort and the codec are exercised on, at sizes
// chosen to hit the empty, tiny, power-of-two and odd-tail paths.
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

TEST(BlockSortTest, SortKeysBlockMatchesStdSort) {
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

TEST(RecordCodecTest, BatchRoundTripMatchesPerRecordCodec) {
  for (Family family : AllFamilies()) {
    for (size_t n : TestSizes()) {
      std::vector<Key> keys = MakeInput(family, n, 41 * n + 3);
      std::vector<uint8_t> bytes(n * kRecordBytes, 0xAB);
      EncodeKeysBatch(keys.data(), n, bytes.data());
      // The byte stream must equal n applications of the per-record codec.
      for (size_t i = 0; i < n; ++i) {
        uint8_t one[kRecordBytes];
        EncodeKey(keys[i], one);
        ASSERT_EQ(0, std::memcmp(one, bytes.data() + i * kRecordBytes,
                                 kRecordBytes))
            << "n=" << n << " i=" << i;
        ASSERT_EQ(DecodeKey(bytes.data() + i * kRecordBytes), keys[i]);
      }
      std::vector<Key> decoded(n, -1);
      DecodeKeysBatch(bytes.data(), n, decoded.data());
      ASSERT_EQ(decoded, keys) << "n=" << n;
    }
  }
}

TEST(RecordCodecTest, EncodingIsLittleEndian) {
  const Key key = 0x0102030405060708;
  uint8_t bytes[kRecordBytes];
  EncodeKeysBatch(&key, 1, bytes);
  for (size_t i = 0; i < kRecordBytes; ++i) {
    EXPECT_EQ(bytes[i], static_cast<uint8_t>(8 - i)) << "byte " << i;
  }
}

}  // namespace
}  // namespace twrs
