#ifndef TWRS_IO_SIM_DISK_ENV_H_
#define TWRS_IO_SIM_DISK_ENV_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "io/env_wrapper.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace twrs {

/// Parameters of the simulated rotating disk. Defaults approximate the 2010
/// 60 GB SATA drive of the paper's testbed (§6.1).
struct DiskModelConfig {
  /// Average positioning cost charged whenever an access is not sequential
  /// with the previous one (seek + rotational latency).
  double seek_seconds = 0.008;

  /// Sequential transfer bandwidth.
  double bandwidth_bytes_per_second = 100.0 * 1024 * 1024;

  /// When true, every access also sleeps its simulated duration in the
  /// calling thread, turning the model into a real-time emulated device.
  /// Accounting-only by default. Real-time mode makes wall-clock
  /// measurements show I/O/CPU overlap: the pipelined sort path pays these
  /// sleeps on pool threads (parallel run generators, leaf merges, partial
  /// final merges) while the serial path pays them all on the caller.
  bool realtime = false;
};

/// Accrues simulated I/O time for a sequence of accesses. An access is
/// sequential (no seek charged) when it continues exactly where the previous
/// access on the same file ended, or when it ends exactly where the previous
/// access began (backward-contiguous writes, which Appendix A.1 notes the
/// operating system's write cache absorbs without synchronous seeks); any
/// other access pays one seek. Thread-safe: the parallel sort path issues
/// accesses from pool workers concurrently.
class DiskModel {
 public:
  explicit DiskModel(DiskModelConfig config = DiskModelConfig())
      : config_(config) {}

  /// Charges one access of `n` bytes at `offset` of file `file_id`.
  void Access(uint64_t file_id, uint64_t offset, uint64_t n)
      TWRS_EXCLUDES(mu_);

  /// Total simulated seconds so far.
  double SimulatedSeconds() const TWRS_EXCLUDES(mu_);

  uint64_t seeks() const TWRS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return seeks_;
  }
  uint64_t bytes_transferred() const TWRS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return bytes_;
  }

  void Reset() TWRS_EXCLUDES(mu_);

 private:
  /// Immutable after construction; read without the lock (notably
  /// `realtime`, polled outside it so the emulated sleep never serializes
  /// concurrent accesses behind the accounting).
  const DiskModelConfig config_;
  mutable Mutex mu_;
  uint64_t seeks_ TWRS_GUARDED_BY(mu_) = 0;
  uint64_t bytes_ TWRS_GUARDED_BY(mu_) = 0;
  uint64_t last_file_ TWRS_GUARDED_BY(mu_) = UINT64_MAX;
  uint64_t last_start_offset_ TWRS_GUARDED_BY(mu_) = 0;
  uint64_t last_end_offset_ TWRS_GUARDED_BY(mu_) = 0;
};

/// Env decorator that charges a DiskModel for every read and write, used
/// by the Chapter 6 benchmarks to reproduce seek-bound effects (e.g. the
/// fan-in U-curve of Figure 6.1) that a page-cached SSD hides. A write is
/// charged before it reaches the base, a read once it returned bytes.
/// Opens, syncs, closes and metadata cost nothing.
class SimDiskEnv : public EnvWrapper {
 public:
  /// Does not take ownership of `base`, which must outlive this Env.
  explicit SimDiskEnv(Env* base, DiskModelConfig config = DiskModelConfig())
      : EnvWrapper(base), model_(config) {}

  DiskModel& model() { return model_; }
  const DiskModel& model() const { return model_; }

  Status Before(const IoOp& op) override {
    if (op.kind == IoOpKind::kWrite) Charge(op);
    return Status::OK();
  }

  void After(const IoOp& op, const Status& status) override {
    if (op.kind == IoOpKind::kRead && status.ok() && op.bytes > 0) Charge(op);
  }

 private:
  /// Charges `op` to the model; every handle on one path is one file.
  void Charge(const IoOp& op) TWRS_EXCLUDES(file_ids_mu_);

  DiskModel model_;
  Mutex file_ids_mu_;
  std::unordered_map<std::string, uint64_t> file_ids_
      TWRS_GUARDED_BY(file_ids_mu_);
};

}  // namespace twrs

#endif  // TWRS_IO_SIM_DISK_ENV_H_
