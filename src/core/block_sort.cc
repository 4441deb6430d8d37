#include "core/block_sort.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

namespace twrs {

namespace {

// LSD radix sort on 8-bit digits: one 256-entry count table per pass
// stays in L1. Counts are uint32_t, so blocks of 2^32 keys or more take
// std::sort.
constexpr int kDigitBits = 8;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

// Key is int64_t; flipping the sign bit maps signed order onto unsigned
// order, so the digits of the image sort keys as Key compares them.
inline uint64_t RadixImage(Key key) {
  return static_cast<uint64_t>(key) ^ (uint64_t{1} << 63);
}

inline size_t Digit(uint64_t image, int shift) {
  return static_cast<size_t>(image >> shift) & (kBuckets - 1);
}

// Turns bucket counts into each bucket's first output slot.
void CountsToOffsets(uint32_t* counts) {
  uint32_t offset = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint32_t count = counts[b];
    counts[b] = offset;
    offset += count;
  }
}

}  // namespace

// One OR/AND pass finds the digits that vary across the block; only those
// get a scatter pass, so keys below 2^32 take four passes and a block of
// equal keys takes none. Each scatter pass also counts the next digit.
// Every pass is stable, so the result is the unique ascending permutation.
void SortKeysBlock(Key* keys, size_t n) {
  if (n < internal::kRadixSortMinKeys ||
      n > std::numeric_limits<uint32_t>::max()) {
    std::sort(keys, keys + n);
    return;
  }
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t image = RadixImage(keys[i]);
    any |= image;
    all &= image;
  }
  const uint64_t varying = any ^ all;
  int shifts[64 / kDigitBits] = {};
  int passes = 0;
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (Digit(varying, shift) != 0) shifts[passes++] = shift;
  }
  if (passes == 0) return;

  uint32_t counts[kBuckets] = {};
  uint32_t next_counts[kBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    ++counts[Digit(RadixImage(keys[i]), shifts[0])];
  }
  std::unique_ptr<Key[]> scratch(new Key[n]);
  Key* src = keys;
  Key* dst = scratch.get();
  for (int p = 0; p < passes; ++p) {
    CountsToOffsets(counts);
    const int shift = shifts[p];
    if (p + 1 < passes) {
      const int next_shift = shifts[p + 1];
      for (size_t i = 0; i < n; ++i) {
        const Key key = src[i];
        const uint64_t image = RadixImage(key);
        dst[counts[Digit(image, shift)]++] = key;
        ++next_counts[Digit(image, next_shift)];
      }
      std::memcpy(counts, next_counts, sizeof(counts));
      std::memset(next_counts, 0, sizeof(next_counts));
    } else {
      for (size_t i = 0; i < n; ++i) {
        const Key key = src[i];
        dst[counts[Digit(RadixImage(key), shift)]++] = key;
      }
    }
    std::swap(src, dst);
  }
  if (src != keys) std::memcpy(keys, src, n * sizeof(Key));
}

}  // namespace twrs
