#ifndef TWRS_IO_ENV_H_
#define TWRS_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace twrs {

/// Append-only file handle.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `n` bytes to the file.
  virtual Status Append(const void* data, size_t n) = 0;

  /// Forces written data to stable storage (fdatasync semantics). The
  /// default is a no-op: MemEnv and SimDiskEnv have no volatile cache to
  /// flush. Durable backends (PosixEnv, IoUringEnv) override it; the sort
  /// pipeline calls it once on the final output before Close.
  virtual Status Sync() { return Status::OK(); }

  /// Starts writeback of bytes [offset, offset + n) of the file, already
  /// appended, without waiting for it to finish, so that a later Sync
  /// finds less dirty data to flush. A hint, not a durability point: only
  /// Sync makes data durable. The default is a no-op, like Sync's.
  /// PosixEnv issues sync_file_range(SYNC_FILE_RANGE_WRITE); IoUringEnv
  /// does the same for bytes whose write has already completed. The sort
  /// pipeline calls it only on the final output, as that output grows
  /// (see RecordWriter::set_start_writeback).
  virtual Status StartWriteback(uint64_t /*offset*/, uint64_t /*n*/) {
    return Status::OK();
  }

  /// Flushes buffered data and closes the handle. Idempotent.
  virtual Status Close() = 0;
};

/// Sequentially readable file handle.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to `n` bytes; `*bytes_read` < n signals end of file.
  virtual Status Read(void* out, size_t n, size_t* bytes_read) = 0;

  /// Skips `n` bytes forward.
  virtual Status Skip(uint64_t n) = 0;
};

/// Random-access read/write handle used by the reverse run file format
/// (Appendix A), which writes pages back to front.
class RandomRWFile {
 public:
  virtual ~RandomRWFile() = default;

  /// Writes `n` bytes at absolute `offset`, extending the file if needed.
  virtual Status WriteAt(uint64_t offset, const void* data, size_t n) = 0;

  /// Reads exactly `n` bytes at `offset`; fails if the range is short.
  virtual Status ReadAt(uint64_t offset, void* out, size_t n) = 0;

  /// Forces written data to stable storage (fdatasync semantics). Default
  /// no-op; see WritableFile::Sync.
  virtual Status Sync() { return Status::OK(); }

  /// Starts writeback of bytes [offset, offset + n) without waiting.
  /// Default no-op; see WritableFile::StartWriteback.
  virtual Status StartWriteback(uint64_t /*offset*/, uint64_t /*n*/) {
    return Status::OK();
  }

  virtual Status Close() = 0;
};

/// Whether an Env's file handles already overlap I/O internally. Purely
/// informational: no engine code branches on it. PosixEnv's I/O is
/// synchronous; IoUringEnv, the one async backend, reports native_async.
struct IoCapabilities {
  /// Appends and positioned writes are submitted without blocking on
  /// completion: they return before the data reaches the file. Reads stay
  /// synchronous on every backend.
  bool native_async = false;
};

/// Selects which Env implementation Env::Default(IoBackend) returns.
enum class IoBackend {
  kDefault,  ///< whatever Env the caller already holds (no override)
  kPosix,    ///< blocking read/write PosixEnv
  kUring,    ///< kernel submission/completion rings (IoUringEnv)
  kAuto,     ///< kUring when supported at runtime, else kPosix
};

/// Abstraction over the storage system (RocksDB idiom). The library performs
/// all file I/O through an Env so that tests can run against an in-memory
/// filesystem and benchmarks can run against a simulated disk model.
class Env {
 public:
  virtual ~Env() = default;

  /// Creates (truncating) a sequential-write file.
  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* out) = 0;

  /// Opens an existing file for sequential reads.
  virtual Status NewSequentialFile(const std::string& path,
                                   std::unique_ptr<SequentialFile>* out) = 0;

  /// Creates (truncating) a positioned read/write file.
  virtual Status NewRandomRWFile(const std::string& path,
                                 std::unique_ptr<RandomRWFile>* out) = 0;

  /// Opens an existing file for positioned read/write without truncation.
  virtual Status ReopenRandomRWFile(const std::string& path,
                                    std::unique_ptr<RandomRWFile>* out) = 0;

  /// Opens an existing file for positioned reads.
  virtual Status NewRandomReadFile(const std::string& path,
                                   std::unique_ptr<RandomRWFile>* out) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status GetFileSize(const std::string& path, uint64_t* size) = 0;

  /// Creates a directory (and parents) if missing; OK if it already exists.
  virtual Status CreateDirIfMissing(const std::string& path) = 0;

  /// Removes `path` if it is an existing empty directory. Best-effort
  /// cleanup helper: an absent or non-empty directory is OK, not an error.
  virtual Status RemoveDir(const std::string& path) = 0;

  /// Lists the immediate entries (files and subdirectories) of `path`,
  /// without "." and "..". Backends with implicit directories (MemEnv)
  /// synthesize subdirectory names from their path map. Defaults to
  /// NotSupported so custom Envs keep compiling; RemoveTreeBestEffort then
  /// degrades to removing nothing.
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* names);

  /// What this Env's handles overlap internally (all-false by default).
  virtual IoCapabilities io_capabilities() const { return IoCapabilities(); }

  /// Returns the process-wide POSIX environment.
  static Env* Default();

  /// Returns the process-wide Env for `backend` (leaked singletons, one
  /// per backend). kDefault and kPosix return Default(); kUring returns
  /// the IoUringEnv (which must be supported — check with
  /// ResolveIoBackend first); kAuto resolves to uring when supported.
  static Env* Default(IoBackend backend);
};

/// Short lowercase name of a backend ("posix", "uring", "auto", ...).
const char* IoBackendName(IoBackend backend);

/// Parses "posix" / "uring" / "auto" into `*out`. False on anything else.
bool ParseIoBackend(const std::string& text, IoBackend* out);

/// Resolves `backend` to a concrete choice (kPosix or kUring) against
/// runtime support. kAuto degrades to kPosix when io_uring is
/// unavailable; an explicit kUring request fails with a one-line error
/// naming the reason instead. kDefault resolves to kDefault (meaning
/// "keep the Env you already have").
Status ResolveIoBackend(IoBackend backend, IoBackend* resolved);

/// Recursively removes everything under `path` and then `path` itself,
/// ignoring errors. Error-path cleanup helper: after a failed sort the
/// scratch directory may hold run files and intermediate merges in any
/// combination, and none of them must survive the failure.
void RemoveTreeBestEffort(Env* env, const std::string& path);

/// Verifies `temp_dir` exists (creating it if missing) and is writable by
/// creating, writing and removing a probe file. Returns a one-line
/// actionable error naming the directory, so a sort can fail at submission
/// time instead of with an opaque I/O error minutes into run generation.
Status PreflightTempDir(Env* env, const std::string& temp_dir);

/// A scratch-subdirectory name no other caller will pick: the pid keeps
/// separate processes sharing a default temp_dir apart, a process-wide
/// counter keeps concurrent callers within one process apart. Shared by
/// every sorter that works inside a per-invocation subdirectory of its
/// configured temp_dir (ExternalSorter, DistributionSort).
std::string UniqueScratchDirName(const std::string& prefix);

}  // namespace twrs

#endif  // TWRS_IO_ENV_H_
