/// AVX2 bodies of the simd kernel twins. This translation unit is the only
/// one compiled with -mavx2 (see src/simd/CMakeLists.txt); everything here
/// runs only after runtime dispatch confirmed the CPU supports AVX2, so the
/// rest of the binary stays executable on baseline x86-64. On toolchains
/// without AVX2 the #else branch at the bottom forwards every twin to its
/// scalar sibling and reports Avx2Compiled() == false.

#include "simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace twrs {
namespace simd {
namespace internal {

namespace {

// AVX2 has no native 64-bit min; synthesize it from the signed compare,
// which matches Key = int64_t ordering exactly.
inline __m256i MinEpi64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

}  // namespace

bool Avx2Compiled() { return true; }

void PartitionBySplittersAvx2(const Key* keys, size_t n, const Key* splitters,
                              size_t num_splitters, uint32_t* bucket) {
  const auto s_count = static_cast<int64_t>(num_splitters);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    __m256i cnt = _mm256_setzero_si256();
    for (size_t s = 0; s < num_splitters; ++s) {
      // cmpgt lanes are -1 where splitter > key; subtracting accumulates
      // the count of splitters strictly greater than each key.
      cnt = _mm256_sub_epi64(
          cnt, _mm256_cmpgt_epi64(_mm256_set1_epi64x(splitters[s]), k));
    }
    alignas(32) int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), cnt);
    for (size_t l = 0; l < 4; ++l) {
      // upper_bound index = total splitters minus those greater than key.
      bucket[i + l] = static_cast<uint32_t>(s_count - lanes[l]);
    }
  }
  for (; i < n; ++i) {
    bucket[i] = static_cast<uint32_t>(
        std::upper_bound(splitters, splitters + num_splitters, keys[i]) -
        splitters);
  }
}

void EncodeKeysBatchAvx2(const Key* keys, size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // x86 is little-endian, so register layout equals the disk format.
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * kRecordBytes),
                        v);
  }
  if (i < n) std::memcpy(out + i * kRecordBytes, keys + i, (n - i) * kRecordBytes);
}

void DecodeKeysBatchAvx2(const uint8_t* in, size_t n, Key* keys) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in + i * kRecordBytes));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i), v);
  }
  if (i < n) std::memcpy(keys + i, in + i * kRecordBytes, (n - i) * kRecordBytes);
}

size_t MinIndexNAvx2(const Key* keys, size_t n) {
  if (n < 4) return MinIndexNScalar(keys, n);
  if (n <= 8) {
    // The merge fast path's shape: everything stays in registers. Two
    // (possibly overlapping) loads cover keys[0..n); the min is reduced
    // and splatted in-register, and one combined equality bitmask yields
    // the first — lowest-index — occurrence.
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + n - 4));
    __m256i m = MinEpi64(v0, v1);
    m = MinEpi64(m, _mm256_permute4x64_epi64(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = MinEpi64(m, _mm256_permute4x64_epi64(m, _MM_SHUFFLE(2, 3, 0, 1)));
    const auto mask0 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v0, m))));
    const auto mask1 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v1, m))));
    // v1's lanes sit at indices n-4..n-1; overlapped bits just OR twice.
    const unsigned mask = mask0 | (mask1 << (n - 4));
    return static_cast<size_t>(__builtin_ctz(mask));
  }
  __m256i vmin = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    vmin = MinEpi64(
        vmin, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)));
  }
  alignas(32) Key lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmin);
  Key m = lanes[0];
  for (size_t l = 1; l < 4; ++l) m = std::min(m, lanes[l]);
  for (; i < n; ++i) m = std::min(m, keys[i]);

  const __m256i vm = _mm256_set1_epi64x(m);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i eq = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j)), vm);
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
    if (mask != 0) {
      return j + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; j < n; ++j) {
    if (keys[j] == m) return j;
  }
  return n - 1;  // unreachable: m is an element of keys[0..n)
}

}  // namespace internal
}  // namespace simd
}  // namespace twrs

#else  // !defined(__AVX2__)

namespace twrs {
namespace simd {
namespace internal {

// Scalar-only build (non-x86 target or a compiler without -mavx2): the
// vector twins forward to their scalar siblings so callers never need to
// know, and CpuSupportsAvx2() reports false via Avx2Compiled().

bool Avx2Compiled() { return false; }

void PartitionBySplittersAvx2(const Key* keys, size_t n, const Key* splitters,
                              size_t num_splitters, uint32_t* bucket) {
  PartitionBySplittersScalar(keys, n, splitters, num_splitters, bucket);
}

void EncodeKeysBatchAvx2(const Key* keys, size_t n, uint8_t* out) {
  EncodeKeysBatchScalar(keys, n, out);
}

void DecodeKeysBatchAvx2(const uint8_t* in, size_t n, Key* keys) {
  DecodeKeysBatchScalar(in, n, keys);
}

size_t MinIndexNAvx2(const Key* keys, size_t n) {
  return MinIndexNScalar(keys, n);
}

}  // namespace internal
}  // namespace simd
}  // namespace twrs

#endif  // defined(__AVX2__)
