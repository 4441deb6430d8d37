#ifndef TWRS_IO_COUNTING_ENV_H_
#define TWRS_IO_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "io/env.h"

namespace twrs {

/// Env decorator that counts the bytes moving through every handle it
/// opens. The sorters wrap their Env in one per operation, so
/// ExternalSortResult can report the real I/O volume of
/// a sort (runs written and re-read, intermediate merges, final output)
/// rather than a records-written proxy.
///
/// Counters are atomic: one CountingEnv is shared by every concurrent
/// run generator, merge and background flush of the operation it
/// measures. Reads of
/// the counters while I/O is still in flight are approximate; reads after
/// the operation completed are exact.
class CountingEnv : public Env {
 public:
  /// Does not take ownership of `base`.
  explicit CountingEnv(Env* base) : base_(base) {}

  Env* base() const { return base_; }

  /// Bytes successfully read/written through handles opened via this Env.
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  /// Mirrors every byte counted by this Env into a second pair of atomic
  /// counters (either may be null). The service layer points these at a
  /// job's live ProgressCounters so status pollers see I/O volume while
  /// the sort is still running, without a second decorator layer. Set
  /// before the operation starts; not re-entrant. The mirror counters
  /// must outlive every handle opened through this Env.
  void MirrorBytesTo(std::atomic<uint64_t>* read_mirror,
                     std::atomic<uint64_t>* write_mirror) {
    read_mirror_ = read_mirror;
    write_mirror_ = write_mirror;
  }

  /// Watches one path: watched_created() turns true once a truncating
  /// create (NewWritableFile/NewRandomRWFile) opens it through this Env.
  /// The sorters watch their output path so error-path cleanup can tell a
  /// torn output this sort truncated from a pre-existing file it never
  /// touched. Set before the operation starts; not re-entrant.
  void WatchPath(std::string path) { watched_path_ = std::move(path); }
  bool watched_created() const {
    return watched_created_.load(std::memory_order_relaxed);
  }

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
  friend class CountingWritableFile;

  Env* base_;
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t>* read_mirror_ = nullptr;
  std::atomic<uint64_t>* write_mirror_ = nullptr;
  std::string watched_path_;
  /// Atomic: parallel leaf merges create files from pool threads.
  std::atomic<bool> watched_created_{false};
};

}  // namespace twrs

#endif  // TWRS_IO_COUNTING_ENV_H_
