#ifndef TWRS_CORE_RUN_SINK_H_
#define TWRS_CORE_RUN_SINK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/record.h"
#include "core/run_stats.h"
#include "io/env.h"
#include "io/record_io.h"
#include "io/reverse_run_file.h"
#include "util/status.h"

namespace twrs {

/// The four output streams of a 2WRS run (Fig 4.1). RS emits everything on
/// kStream1. Streams 1 and 3 carry non-decreasing keys; streams 2 and 4
/// carry non-increasing keys. Read in the order 4, 3, 2, 1 — with the
/// decreasing streams read through the Appendix-A reverse format — the run
/// is a single non-decreasing sequence.
enum RunStream {
  kStream1 = 0,  ///< TopHeap output, increasing
  kStream2 = 1,  ///< victim buffer upper flushes, decreasing
  kStream3 = 2,  ///< victim buffer lower flushes, increasing
  kStream4 = 3,  ///< BottomHeap output, decreasing
};

inline constexpr int kNumRunStreams = 4;

/// One physical segment of a generated run.
struct RunSegment {
  std::string path;      ///< file path (forward) or base path (reverse)
  bool reverse = false;  ///< true: Appendix-A format, read via ReverseRunReader
  uint64_t count = 0;    ///< records in the segment
  uint64_t num_files = 0;  ///< physical files (reverse segments only)
};

/// A generated run: segments listed in ascending key order, ready to merge.
struct RunInfo {
  std::vector<RunSegment> segments;
  uint64_t length = 0;  ///< total records across segments

  Key min_key = 0;  ///< smallest key in the run (valid when length > 0)
  Key max_key = 0;  ///< largest key in the run (valid when length > 0)
};

/// Receives the runs produced by a run generation algorithm.
///
/// Protocol: BeginRun, then any number of Append calls on the four streams
/// (each stream individually ordered as documented on RunStream), then
/// EndRun; repeated per run; finally Finish exactly once.
class RunSink {
 public:
  virtual ~RunSink() = default;

  virtual Status BeginRun() = 0;
  virtual Status Append(RunStream stream, Key key) = 0;

  /// Appends `n` keys to `stream` in one call, already in that stream's
  /// order (non-decreasing for streams 1 and 3, non-increasing for 2 and
  /// 4) — the span path of every run generator. The default loops Append.
  virtual Status AppendSorted(RunStream stream, const Key* keys, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      TWRS_RETURN_IF_ERROR(Append(stream, keys[i]));
    }
    return Status::OK();
  }

  virtual Status EndRun() = 0;
  virtual Status Finish() = 0;

  /// Completed runs (valid after each EndRun).
  const std::vector<RunInfo>& runs() const { return runs_; }

 protected:
  std::vector<RunInfo> runs_;
};

/// Counts run lengths without storing records. Used by the Chapter 5
/// factorial experiments, whose response variable is the number of runs.
class CountingRunSink : public RunSink {
 public:
  Status BeginRun() override;
  Status Append(RunStream stream, Key key) override;
  Status AppendSorted(RunStream stream, const Key* keys, size_t n) override;
  Status EndRun() override;
  Status Finish() override;

 private:
  void NoteBounds(Key lo, Key hi);

  bool in_run_ = false;
  uint64_t current_length_ = 0;
  bool have_bounds_ = false;
  Key min_key_ = 0;
  Key max_key_ = 0;
};

/// Collects each run as an in-memory vector assembled in ascending order
/// (test helper). Also validates per-stream ordering.
class CollectingRunSink : public RunSink {
 public:
  Status BeginRun() override;
  Status Append(RunStream stream, Key key) override;
  Status AppendSorted(RunStream stream, const Key* keys, size_t n) override;
  Status EndRun() override;
  Status Finish() override;

  /// The assembled runs, each in ascending order.
  const std::vector<std::vector<Key>>& collected() const { return collected_; }

 private:
  bool in_run_ = false;
  std::vector<Key> streams_[kNumRunStreams];
  std::vector<std::vector<Key>> collected_;
};

/// Options for file-backed run output.
struct FileRunSinkOptions {
  size_t block_bytes = kDefaultBlockBytes;
  ReverseRunFileOptions reverse;

  /// When non-null, every block write of a forward run stream records its
  /// wall time here (decreasing streams use the positioned reverse-file
  /// format and are not timed). Must outlive the sink.
  LatencyHistogram* flush_histogram = nullptr;
};

/// Writes runs to files under `dir` with the given name prefix. Forward
/// streams become plain record files; decreasing streams use the
/// Appendix-A reverse format so the merge phase reads everything forward.
class FileRunSink : public RunSink {
 public:
  FileRunSink(Env* env, std::string dir, std::string prefix,
              FileRunSinkOptions options = FileRunSinkOptions());

  Status BeginRun() override;
  Status Append(RunStream stream, Key key) override;

  /// Writes the span through RecordWriter::AppendBatch (increasing
  /// streams) or ReverseRunWriter::AppendBatch (decreasing streams); the
  /// run's bounds come from the span's ends.
  Status AppendSorted(RunStream stream, const Key* keys, size_t n) override;

  Status EndRun() override;
  Status Finish() override;

 private:
  /// Widens the current run's key bounds to [lo, hi].
  void NoteBounds(Key lo, Key hi);

  /// Creates the writer of `stream` for the current run if it has none.
  Status OpenWriter(RunStream stream);

  std::string StreamPath(uint64_t run, RunStream stream) const;

  Env* env_;
  std::string dir_;
  std::string prefix_;
  FileRunSinkOptions options_;
  uint64_t run_index_ = 0;
  bool in_run_ = false;
  bool have_bounds_ = false;
  Key min_key_ = 0;
  Key max_key_ = 0;
  std::unique_ptr<RecordWriter> forward_[kNumRunStreams];
  std::unique_ptr<ReverseRunWriter> reverse_[kNumRunStreams];
};

}  // namespace twrs

#endif  // TWRS_CORE_RUN_SINK_H_
