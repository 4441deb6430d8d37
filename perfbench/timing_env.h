#ifndef TWRS_PERFBENCH_TIMING_ENV_H_
#define TWRS_PERFBENCH_TIMING_ENV_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"

namespace twrs {
namespace perfbench {

/// Env decorator of the traced run: times every call into the base Env and
/// counts calls and opens, from outside the engine. Time is split by the
/// sort phase the call happened in (BeginMerge() is wired to the sorter's
/// on_merge_begin hook) and by kind. Times are summed over threads, so on
/// a parallel sort they can exceed the wall time they overlap.
///
/// io_capabilities() forwards to the base, so the sorter takes the same
/// (undecorated) code path as in the timed runs.
class TimingEnv : public Env {
 public:
  enum Phase { kRunGenPhase = 0, kMergePhase = 1, kNumPhases = 2 };
  /// kWrite covers appends, positioned writes, closes, creates and
  /// namespace changes (remove, mkdir); kRead covers reads, skips, opens of
  /// read handles and lookups.
  enum Kind { kRead = 0, kWrite = 1, kSync = 2, kNumKinds = 3 };

  explicit TimingEnv(Env* base) : base_(base) {}

  void BeginMerge() { phase_.store(kMergePhase, std::memory_order_relaxed); }

  double Seconds(Phase phase, Kind kind) const {
    return static_cast<double>(
               ns_[phase][kind].load(std::memory_order_relaxed)) *
           1e-9;
  }
  uint64_t read_calls() const { return read_calls_.load(); }
  uint64_t write_calls() const { return write_calls_.load(); }
  uint64_t files_opened() const { return files_opened_.load(); }

  /// Runs `call`, charging its wall time to `kind` in the current phase.
  template <typename Call>
  auto Timed(Kind kind, Call&& call) {
    const auto start = std::chrono::steady_clock::now();
    auto result = call();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    ns_[phase_.load(std::memory_order_relaxed)][kind].fetch_add(
        static_cast<uint64_t>(ns), std::memory_order_relaxed);
    return result;
  }

  void CountRead() { read_calls_.fetch_add(1, std::memory_order_relaxed); }
  void CountWrite() { write_calls_.fetch_add(1, std::memory_order_relaxed); }

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
  IoCapabilities io_capabilities() const override {
    return base_->io_capabilities();
  }

 private:
  using OpenRandomFn = Status (Env::*)(const std::string&,
                                       std::unique_ptr<RandomRWFile>*);
  Status OpenRandom(Kind kind, OpenRandomFn open, const std::string& path,
                    std::unique_ptr<RandomRWFile>* out);

  Env* const base_;
  std::atomic<int> phase_{kRunGenPhase};
  std::atomic<uint64_t> ns_[kNumPhases][kNumKinds] = {};
  std::atomic<uint64_t> read_calls_{0};
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> files_opened_{0};
};

}  // namespace perfbench
}  // namespace twrs

#endif  // TWRS_PERFBENCH_TIMING_ENV_H_
