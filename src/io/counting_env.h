#ifndef TWRS_IO_COUNTING_ENV_H_
#define TWRS_IO_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "io/env_wrapper.h"

namespace twrs {

/// Env decorator that counts the bytes every handle it opens moves, so
/// ExternalSortResult reports a sort's real I/O volume (runs written and
/// re-read, intermediate merges, output). Writeback kicks move no bytes of
/// their own and are not counted. One instance is shared by every
/// concurrent generator, merge and flush of a sort, so the counters are
/// atomic; they are exact once the operation has completed. Set the
/// mirrors and the watched path before the operation starts.
class CountingEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  uint64_t bytes_read() const { return bytes_read_.load(); }
  uint64_t bytes_written() const { return bytes_written_.load(); }

  /// Also adds every counted byte to these counters (either may be null),
  /// e.g. a job's live progress.
  void MirrorBytesTo(std::atomic<uint64_t>* read_mirror,
                     std::atomic<uint64_t>* write_mirror) {
    read_mirror_ = read_mirror;
    write_mirror_ = write_mirror;
  }

  /// watched_created() turns true once a truncating open of `path`
  /// succeeds, so a failed sort removes only an output it truncated.
  void WatchPath(std::string path) { watched_path_ = std::move(path); }
  bool watched_created() const { return watched_created_.load(); }

  void After(const IoOp& op, const Status& status) override;

 private:
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t>* read_mirror_ = nullptr;
  std::atomic<uint64_t>* write_mirror_ = nullptr;
  std::string watched_path_;
  std::atomic<bool> watched_created_{false};
};

}  // namespace twrs

#endif  // TWRS_IO_COUNTING_ENV_H_
