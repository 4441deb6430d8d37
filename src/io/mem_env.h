#ifndef TWRS_IO_MEM_ENV_H_
#define TWRS_IO_MEM_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace twrs {

namespace internal {

/// One stored MemEnv file: its bytes plus the per-file lock every open
/// handle takes around an access.
struct MemEnvFile {
  Mutex mu;
  std::vector<uint8_t> data TWRS_GUARDED_BY(mu);
};

}  // namespace internal

/// In-memory Env used by the test suite. Every file is a byte vector keyed by
/// path; directories are implicit. The path map is mutex-protected so
/// concurrent sorts and the exec subsystem's background I/O can share one
/// MemEnv. Each file additionally carries its own mutex, giving the same
/// guarantee POSIX gives pwrite: concurrent handles to one file may write
/// disjoint byte ranges (the RangeWritableFile pattern) without a data race.
class MemEnv : public Env {
 public:
  MemEnv() = default;

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

  /// Number of files currently stored (test helper).
  size_t FileCount() const TWRS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return files_.size();
  }

  /// Direct access to a file's bytes (test helper); null if absent. Only
  /// safe while no writer has the file open.
  const std::vector<uint8_t>* FileContents(const std::string& path) const
      TWRS_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // Shared so that open handles survive RemoveFile, as POSIX does.
  std::map<std::string, std::shared_ptr<internal::MemEnvFile>> files_
      TWRS_GUARDED_BY(mu_);
};

}  // namespace twrs

#endif  // TWRS_IO_MEM_ENV_H_
