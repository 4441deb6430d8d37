/// AVX2 bodies of the simd kernel twins. This translation unit is the only
/// one compiled with -mavx2 (see src/simd/CMakeLists.txt); everything here
/// runs only after runtime dispatch confirmed the CPU supports AVX2, so the
/// rest of the binary stays executable on baseline x86-64. On toolchains
/// without AVX2 the #else branch at the bottom forwards every twin to its
/// scalar sibling and reports Avx2Compiled() == false.

#include "simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace twrs {
namespace simd {
namespace internal {

bool Avx2Compiled() { return true; }

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

void EncodeKeysBatchAvx2(const Key* keys, size_t n, uint8_t* out) {
  EncodeKeysBatchScalar(keys, n, out);
}

void DecodeKeysBatchAvx2(const uint8_t* in, size_t n, Key* keys) {
  DecodeKeysBatchScalar(in, n, keys);
}

}  // namespace internal
}  // namespace simd
}  // namespace twrs

#endif  // defined(__AVX2__)
