#ifndef TWRS_IO_ENV_WRAPPER_H_
#define TWRS_IO_ENV_WRAPPER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"

namespace twrs {

/// What an I/O operation does.
enum class IoOpKind { kOpen, kRead, kWrite, kSync, kWriteback, kClose };

/// The Env method that opened a handle.
enum class OpenMethod {
  kNewWritableFile,
  kNewSequentialFile,
  kNewRandomRWFile,
  kReopenRandomRWFile,
  kNewRandomReadFile,
};

/// One operation on a handle (or the open that makes one), as the
/// EnvWrapper hooks see it.
struct IoOp {
  IoOpKind kind;
  OpenMethod opened_by;
  const std::string& path;
  /// Where a read or write starts: the handle's logical offset for
  /// Append and Read (which Append, Read and Skip advance), the caller's
  /// offset for WriteAt and ReadAt. The caller's offset for a writeback
  /// (StartWriteback). The logical offset for sync and close (0 on a
  /// positioned handle), and 0 for open.
  uint64_t offset;
  /// Bytes a read or write asks for, or a writeback covers. A read's After
  /// sees the bytes it actually read; 0 for open, sync and close.
  uint64_t bytes;
};

/// Env decorator base: forwards every Env method to `base` and wraps each
/// handle the five open methods return, so that a decorator is one or two
/// hooks. Before runs ahead of each open, read, write, sync, writeback and
/// close; a non-OK result fails the operation without calling the base.
/// After runs once the operation finished, with its result (or Before's
/// failure).
/// Close fires once per handle, on the first Close() or on destruction
/// (after the base handle is gone); a SequentialFile has no Close(), so
/// its close is its destruction. Skip advances the logical offset and
/// fires nothing. Directory and metadata methods forward without hooks.
///
/// Hooks run on whichever thread issues the operation, concurrently when
/// the sort does. The wrapper itself allocates, locks and reads no clock
/// per operation.
class EnvWrapper : public Env {
 public:
  /// Does not take ownership of `base`, which must outlive this Env and
  /// every handle opened through it.
  explicit EnvWrapper(Env* base) : base_(base) {}

  Env* base() const { return base_; }

  virtual Status Before(const IoOp& /*op*/) { return Status::OK(); }
  virtual void After(const IoOp& /*op*/, const Status& /*status*/) {}

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

 private:
  Env* const base_;
};

}  // namespace twrs

#endif  // TWRS_IO_ENV_WRAPPER_H_
