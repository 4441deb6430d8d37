#ifndef TWRS_SIMD_DISPATCH_H_
#define TWRS_SIMD_DISPATCH_H_

#include <cstdint>

namespace twrs {
namespace simd {

// Header-only shim for perfbench/perf_sort.cc, which still prints a
// dispatch level and reads per-kernel call counters. The engine has one
// portable code path (core/block_sort.h, the codec in core/record.h) and
// no engine source includes this file. It goes with the perfbench
// revision (ROADMAP item 1).

/// The one code path every host runs.
enum class DispatchLevel {
  kPortable = 0,
};

inline constexpr int kNumDispatchLevels = 1;

inline const char* DispatchLevelName(DispatchLevel /*level*/) {
  return "portable";
}

inline DispatchLevel ActiveDispatchLevel() { return DispatchLevel::kPortable; }

/// Kernel names the perfbench metrics are keyed by.
enum class Kernel {
  kSortKeys = 0,
  kPartition = 1,
  kEncode = 2,
  kDecode = 3,
  kMinIndex = 4,
};

inline const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kSortKeys:
      return "sort_block";
    case Kernel::kPartition:
      return "partition";
    case Kernel::kEncode:
      return "encode";
    case Kernel::kDecode:
      return "decode";
    case Kernel::kMinIndex:
      return "min_index";
  }
  return "unknown";
}

/// Nothing counts kernel calls any more, so every counter reads 0.
inline uint64_t KernelCalls(Kernel /*kernel*/, DispatchLevel /*level*/) {
  return 0;
}

}  // namespace simd
}  // namespace twrs

#endif  // TWRS_SIMD_DISPATCH_H_
