#ifndef TWRS_IO_URING_ENV_H_
#define TWRS_IO_URING_ENV_H_

#include <cstddef>
#include <memory>
#include <string>

#include "io/env.h"
#include "io/posix_env.h"

namespace twrs {

class MetricsRegistry;

/// Env backed by Linux kernel submission/completion rings (io_uring, raw
/// syscalls — no liburing dependency). It is the engine's one async I/O
/// backend: PosixEnv is plain synchronous buffered I/O. Two handle types
/// use a ring. One write handle serves appends and positioned writes
/// alike: it double-buffers writes through two 256 KiB transfer buffers,
/// coalescing contiguous writes into one submission per buffer and
/// returning before the kernel completes it. Sequential reads keep
/// demand-paced read-ahead blocks in flight in the same two buffers.
/// Positioned reads (NewRandomReadFile) take no ring: each is one pread.
///
/// A handle borrows a ring, with its transfer buffers registered with the
/// kernel (IORING_REGISTER_BUFFERS) when the kernel allows it, from a
/// per-Env pool and returns it on Close. The pool keeps every returned
/// ring, so it grows to the peak number of handles open at once and ring
/// setup is paid once per Env, not per file or per sort.
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
  // Metadata operations (stat, unlink, mkdir, readdir) and single
  // positioned reads have no useful async form; they go straight through
  // the blocking implementation.
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
