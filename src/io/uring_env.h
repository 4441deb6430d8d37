#ifndef TWRS_IO_URING_ENV_H_
#define TWRS_IO_URING_ENV_H_

#include <cstddef>
#include <memory>
#include <string>

#include "io/env.h"
#include "io/posix_env.h"

namespace twrs {

class MetricsRegistry;

/// Tuning knobs for IoUringEnv. The defaults match the async decorators
/// they replace (kDefaultAsyncBufferBytes double buffers), so swapping the
/// backend changes the I/O mechanism, not the buffering economics.
struct IoUringEnvOptions {
  /// Submission-queue depth of each file's ring. Eight slots cover the
  /// deepest per-handle pipeline (double-buffered writes + fsync + retry
  /// resubmissions) with room for batching.
  unsigned ring_entries = 8;

  /// Size of each internal transfer buffer. Every handle type uses two:
  /// double-buffered appends, two read-ahead blocks, or two
  /// positioned-write slots.
  size_t buffer_bytes = 256 * 1024;

  /// Register the transfer buffers with the kernel
  /// (IORING_REGISTER_BUFFERS) so data SQEs skip the per-op page pinning.
  /// Registration happens once per pooled ring, not per file, so its page
  /// pinning cost is amortized across every handle that reuses the ring.
  /// Falls back to plain READ/WRITE opcodes when registration is refused
  /// (RLIMIT_MEMLOCK, EPERM in containers).
  bool register_buffers = true;

  /// Open sequential-write files with O_DIRECT, bypassing the page cache.
  /// Writes are then issued in 4096-byte-aligned units from the aligned
  /// internal buffers; the final partial block is padded and the file
  /// truncated back to its logical size on Close. Filesystems without
  /// O_DIRECT support (tmpfs) silently degrade to buffered opens.
  bool use_o_direct = false;
};

/// Env backed by Linux kernel submission/completion rings (io_uring, raw
/// syscalls — no liburing dependency). Each open handle borrows a ring
/// (with its registered transfer buffers) from a per-Env pool and returns
/// it on Close, so ring setup and buffer registration are paid once and
/// amortized across every run, temp and output file of a sort. Appends
/// and positioned writes are submitted without waiting for completion
/// (the next buffer rotation reaps them), sequential reads keep
/// read-ahead blocks in flight. The async decorators detect this through
/// io_capabilities() and skip their pump threads entirely.
///
/// Handles follow the same threading contract as PosixEnv's: one handle is
/// used by one thread at a time; concurrent disjoint-range writers each
/// open their own handle (and thus their own ring).
///
/// Only available when the build found <linux/io_uring.h>
/// (TWRS_WITH_URING); otherwise IsSupported() is false and every open
/// returns NotSupported. Check IsSupported() / ResolveIoBackend before
/// constructing one via Env::Default(IoBackend::kUring).
class IoUringEnv : public Env {
 public:
  IoUringEnv();
  explicit IoUringEnv(const IoUringEnvOptions& options);
  ~IoUringEnv() override;

  IoUringEnv(const IoUringEnv&) = delete;
  IoUringEnv& operator=(const IoUringEnv&) = delete;

  /// True when this build carries the io_uring backend and the running
  /// kernel accepts io_uring_setup (probed once per process). False on
  /// builds without TWRS_WITH_URING, kernels without io_uring, or systems
  /// where it is administratively disabled (kernel.io_uring_disabled).
  static bool IsSupported();

  /// One-line reason IsSupported() is false ("supported" when it is true).
  static std::string UnsupportedReason();

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override;
  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override;
  Status NewRandomRWFile(const std::string& path,
                         std::unique_ptr<RandomRWFile>* out) override;
  Status ReopenRandomRWFile(const std::string& path,
                            std::unique_ptr<RandomRWFile>* out) override;
  Status NewRandomReadFile(const std::string& path,
                           std::unique_ptr<RandomRWFile>* out) override;
  bool FileExists(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status GetFileSize(const std::string& path, uint64_t* size) override;
  Status CreateDirIfMissing(const std::string& path) override;
  Status RemoveDir(const std::string& path) override;
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override;
  IoCapabilities io_capabilities() const override;

 private:
  IoUringEnvOptions options_;
  // Metadata operations (stat, unlink, mkdir, readdir) have no useful
  // async form; they go straight through the blocking implementation.
  PosixEnv metadata_env_;
  // Recycles rings + registered buffers across file handles. Opaque: the
  // pool is an internal type of the .cc (its deleter is captured at
  // construction); null on builds without the backend.
  std::shared_ptr<void> pool_;
};

/// Mirrors the process-wide io_uring counters into `metrics` as
/// `io.uring.{submitted,completed,short_ios,rings_created,ring_reuses}`
/// monotonic counters and the
/// `io.uring.sqe_batch_len` histogram (SQEs consumed per io_uring_enter),
/// incrementing each registry by what it has not yet seen, so publishing
/// twice without new activity does not double-count. No-op on builds
/// without the backend.
void PublishIoUringCounters(MetricsRegistry* metrics);

}  // namespace twrs

#endif  // TWRS_IO_URING_ENV_H_
