#ifndef TWRS_SIMD_DISPATCH_H_
#define TWRS_SIMD_DISPATCH_H_

#include <cstdint>

namespace twrs {

class MetricsRegistry;

namespace simd {

/// Instruction-set tier a kernel call actually executes on. A kernel has at
/// most two contracts — a portable scalar implementation and a vectorized
/// twin pinned byte-identical to it (SortKeysBlock has only the portable
/// one) — so the level is a two-way switch rather than a full ISA lattice.
/// Extending to AVX-512 or NEON means adding a level here plus one more
/// twin per twinned kernel (see the "SIMD kernels" section of README.md).
enum class DispatchLevel {
  kScalar = 0,
  kAvx2 = 1,
};

inline constexpr int kNumDispatchLevels = 2;

/// "scalar" or "avx2" (stable names, used in metrics and bench JSON).
const char* DispatchLevelName(DispatchLevel level);

/// True when the running CPU reports AVX2 *and* this binary carries the
/// AVX2 kernel bodies (a non-x86 or AVX2-incapable compiler builds the
/// scalar-only binary). Probed once, then cached.
bool CpuSupportsAvx2();

/// The level the dispatched kernel entry points currently select:
/// kAvx2 when the CPU supports it and scalar is not forced, else kScalar.
///
/// Scalar can be forced two ways: the TWRS_FORCE_SCALAR environment
/// variable (any value except "0" or empty, read once at first use) sets
/// the initial state, and ForceScalar() overrides it programmatically at
/// any time. A cheap relaxed atomic read, safe to call per batch.
DispatchLevel ActiveDispatchLevel();

/// Programmatic dispatch override: ForceScalar(true) pins every kernel to
/// the scalar path, ForceScalar(false) re-enables vector dispatch even if
/// TWRS_FORCE_SCALAR is set. The last call wins. Thread-safe.
void ForceScalar(bool force);

/// Drops any ForceScalar() override, reverting to the TWRS_FORCE_SCALAR
/// environment default. Used by tests to restore the ambient state.
void ClearForceScalarOverride();

/// The kernels exposed by this layer, for dispatch accounting.
enum class Kernel {
  kSortKeys = 0,
  kPartition = 1,
  kEncode = 2,
  kDecode = 3,
  kMinIndex = 4,
};

inline constexpr int kNumKernels = 5;

/// "sort_block", "partition", "encode", "decode", "min_index".
const char* KernelName(Kernel kernel);

/// Process-wide count of calls dispatched to `level` for `kernel` since
/// startup: one per invocation of a dispatched entry point.
uint64_t KernelCalls(Kernel kernel, DispatchLevel level);

/// Adds `n` to the (kernel, level) call counter. Dispatched entry points
/// call this with n=1.
void AddKernelCalls(Kernel kernel, DispatchLevel level, uint64_t n);

/// Mirrors the process-wide kernel call counters into `metrics` as
/// monotonic counters named `simd.<kernel>.<level>_calls`, incrementing
/// each by what that registry has not yet seen. Call-site layers (sort
/// phases, SortService stats) invoke this when snapshotting, so per-job
/// registries show which dispatch path their sorts actually ran.
void PublishKernelCounters(MetricsRegistry* metrics);

}  // namespace simd
}  // namespace twrs

#endif  // TWRS_SIMD_DISPATCH_H_
