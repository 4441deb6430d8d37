#include "simd/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

namespace twrs {
namespace simd {

namespace {

/// Linear scans beat per-key binary search only while the whole splitter
/// set fits comfortably in registers/L1; wider sets (never produced by the
/// shard planner) take the scalar search even under vector dispatch.
constexpr size_t kMaxVectorSplitters = 64;

DispatchLevel ResolveAndCount(Kernel kernel) {
  const DispatchLevel level = ActiveDispatchLevel();
  AddKernelCalls(kernel, level, 1);
  return level;
}

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

// One OR/AND pass finds the digits that vary across the block; only those
// get a scatter pass, so keys below 2^32 take four passes and a block of
// equal keys takes none. Each scatter pass also counts the next digit.
// Every pass is stable, so the result is the unique ascending permutation.
void RadixSortKeys(Key* keys, size_t n) {
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

}  // namespace

namespace internal {

void PartitionBySplittersScalar(const Key* keys, size_t n,
                                const Key* splitters, size_t num_splitters,
                                uint32_t* bucket) {
  for (size_t i = 0; i < n; ++i) {
    bucket[i] = static_cast<uint32_t>(
        std::upper_bound(splitters, splitters + num_splitters, keys[i]) -
        splitters);
  }
}

void EncodeKeysBatchScalar(const Key* keys, size_t n, uint8_t* out) {
#if TWRS_LITTLE_ENDIAN
  // In-memory and on-disk layouts agree on little-endian hosts, so the
  // whole batch is one copy (the compiler fully vectorizes this).
  if (n > 0) std::memcpy(out, keys, n * kRecordBytes);
#else
  for (size_t i = 0; i < n; ++i) EncodeKey(keys[i], out + i * kRecordBytes);
#endif
}

void DecodeKeysBatchScalar(const uint8_t* in, size_t n, Key* keys) {
#if TWRS_LITTLE_ENDIAN
  if (n > 0) std::memcpy(keys, in, n * kRecordBytes);
#else
  for (size_t i = 0; i < n; ++i) keys[i] = DecodeKey(in + i * kRecordBytes);
#endif
}

size_t MinIndexNScalar(const Key* keys, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (keys[i] < keys[best]) best = i;
  }
  return best;
}

}  // namespace internal

void SortKeysBlock(Key* keys, size_t n) {
  // One portable kernel serves every level; the call is still counted
  // under the active one.
  ResolveAndCount(Kernel::kSortKeys);
  RadixSortKeys(keys, n);
}

void PartitionBySplitters(const Key* keys, size_t n, const Key* splitters,
                          size_t num_splitters, uint32_t* bucket) {
  if (num_splitters <= kMaxVectorSplitters &&
      ResolveAndCount(Kernel::kPartition) == DispatchLevel::kAvx2) {
    internal::PartitionBySplittersAvx2(keys, n, splitters, num_splitters,
                                       bucket);
  } else {
    internal::PartitionBySplittersScalar(keys, n, splitters, num_splitters,
                                         bucket);
  }
}

void EncodeKeysBatch(const Key* keys, size_t n, uint8_t* out) {
  if (ResolveAndCount(Kernel::kEncode) == DispatchLevel::kAvx2) {
    internal::EncodeKeysBatchAvx2(keys, n, out);
  } else {
    internal::EncodeKeysBatchScalar(keys, n, out);
  }
}

void DecodeKeysBatch(const uint8_t* in, size_t n, Key* keys) {
  if (ResolveAndCount(Kernel::kDecode) == DispatchLevel::kAvx2) {
    internal::DecodeKeysBatchAvx2(in, n, keys);
  } else {
    internal::DecodeKeysBatchScalar(in, n, keys);
  }
}

size_t MinIndexN(const Key* keys, size_t n) {
  if (ResolveAndCount(Kernel::kMinIndex) == DispatchLevel::kAvx2) {
    return internal::MinIndexNAvx2(keys, n);
  }
  return internal::MinIndexNScalar(keys, n);
}

}  // namespace simd
}  // namespace twrs
