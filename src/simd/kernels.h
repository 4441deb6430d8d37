#ifndef TWRS_SIMD_KERNELS_H_
#define TWRS_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "core/record.h"
#include "simd/dispatch.h"

namespace twrs {
namespace simd {

/// Sorts keys[0..n) ascending with one portable LSD radix sort on 8-bit
/// digits, the same code at every dispatch level. A pre-pass skips the
/// digits that are constant across the block, so keys below 2^32 take four
/// scatter passes and a block of equal keys takes none; blocks shorter than
/// internal::kRadixSortMinKeys take std::sort. The output is the unique
/// ascending permutation. Used for the in-memory sort of LSS blocks,
/// batched RS and 2WRS batches, victim buffers, splitter samples and
/// distribution-sort leaves.
void SortKeysBlock(Key* keys, size_t n);

/// Serializes keys[0..n) little-endian into out[0..n*kRecordBytes) — the
/// bulk form of EncodeKey, used by the block-buffered record writers.
void EncodeKeysBatch(const Key* keys, size_t n, uint8_t* out);

/// Deserializes n little-endian records from `in` into keys[0..n) — the
/// bulk form of DecodeKey, used by the block-buffered record readers.
void DecodeKeysBatch(const uint8_t* in, size_t n, Key* keys);

/// Fixed-level twins behind the dispatched entry points above (every kernel
/// but SortKeysBlock, which has one portable body). Tests pin byte-identity
/// across levels through these, and bench_simd times each level on
/// identical inputs. The Avx2 entries must only be called when
/// CpuSupportsAvx2() is true; on scalar-only builds they forward to the
/// scalar twin. None of these touch the dispatch call counters.
namespace internal {

/// SortKeysBlock sorts blocks shorter than this with std::sort, where a
/// radix pass's 256-bucket table costs more than the comparisons.
inline constexpr size_t kRadixSortMinKeys = 64;

void EncodeKeysBatchScalar(const Key* keys, size_t n, uint8_t* out);
void EncodeKeysBatchAvx2(const Key* keys, size_t n, uint8_t* out);

void DecodeKeysBatchScalar(const uint8_t* in, size_t n, Key* keys);
void DecodeKeysBatchAvx2(const uint8_t* in, size_t n, Key* keys);

/// True when this binary was compiled with the AVX2 kernel bodies
/// (x86 toolchain with -mavx2 support); false on the scalar-only build.
bool Avx2Compiled();

}  // namespace internal

}  // namespace simd
}  // namespace twrs

#endif  // TWRS_SIMD_KERNELS_H_
