#ifndef TWRS_CORE_BLOCK_SORT_H_
#define TWRS_CORE_BLOCK_SORT_H_

#include <cstddef>

#include "core/record.h"

namespace twrs {

/// Sorts keys[0..n) ascending with one portable LSD radix sort on 8-bit
/// digits. A pre-pass skips the digits that are constant across the block,
/// so keys below 2^32 take four scatter passes and a block of equal keys
/// takes none; blocks shorter than internal::kRadixSortMinKeys take
/// std::sort. The output is the unique ascending permutation. Used for the
/// in-memory sort of LSS blocks, batched RS and 2WRS batches, victim
/// buffers, splitter samples and distribution-sort leaves.
void SortKeysBlock(Key* keys, size_t n);

namespace internal {

/// SortKeysBlock sorts blocks shorter than this with std::sort, where a
/// radix pass's 256-bucket table costs more than the comparisons.
inline constexpr size_t kRadixSortMinKeys = 64;

}  // namespace internal

}  // namespace twrs

#endif  // TWRS_CORE_BLOCK_SORT_H_
