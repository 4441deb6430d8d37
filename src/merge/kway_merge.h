#ifndef TWRS_MERGE_KWAY_MERGE_H_
#define TWRS_MERGE_KWAY_MERGE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/record.h"
#include "core/run_sink.h"
#include "io/env.h"
#include "io/range_writable_file.h"
#include "io/record_io.h"
#include "io/reverse_run_file.h"
#include "obs/progress.h"
#include "util/cancel.h"
#include "util/status.h"

namespace twrs {

/// I/O configuration of one k-way merge.
struct MergeIoOptions {
  /// Read/write buffer per stream.
  size_t block_bytes = kDefaultBlockBytes;

  /// Cooperative cancellation: when non-null, the merge loop polls the
  /// token once per output block (1024 records) and unwinds with
  /// Status::Cancelled once it fires. Must outlive the merge.
  const CancelToken* cancel = nullptr;

  /// Live progress: when non-null, the merge loop adds each flushed output
  /// block's record count to `progress->AddRecordsMerged`, so the counter
  /// is exact once the merge returns. Must outlive the merge.
  ProgressCounters* progress = nullptr;

  /// When non-null, the wall time of every block write of the merge output
  /// is recorded here (see MakeRecordWriter). Must outlive the merge.
  LatencyHistogram* flush_histogram = nullptr;

  /// Force the merge output to stable storage before it is closed, through
  /// RecordWriter::set_sync_on_finish.
  /// Set only on the final pass writing the user-visible output;
  /// intermediate runs are re-read and deleted, so syncing them would buy
  /// nothing but write stalls.
  bool sync_output = false;
};

/// Block cursor over one generated run: iterates its segments in order,
/// decoding one block of keys at a time — forward segments through
/// RecordReader::Read, decreasing segments through the Appendix-A
/// ReverseRunReader::Read — into a single non-decreasing key sequence.
/// Stepping within a decoded block is inline; only Refill touches the
/// readers and returns a Status.
class RunCursor {
 public:
  RunCursor(Env* env, RunInfo run, size_t block_bytes = kDefaultBlockBytes);

  /// Opens the first segment and positions on the first record.
  Status Init();

  /// Positions on record `skip` of the run (0-based across segments) and
  /// caps iteration at `limit` records — the ranged cursor of a partial
  /// merge. Whole segments before the slice are skipped using their
  /// metadata counts without opening them; within the boundary segment,
  /// forward files skip by byte offset and reverse streams through
  /// ReverseRunReader::SkipRecords, so positioning costs header reads and
  /// seeks, not a prefix scan. The limit also caps every block fill.
  Status InitSlice(uint64_t skip, uint64_t limit);

  bool valid() const { return pos_ < end_; }

  /// Current key. Requires valid().
  Key key() const { return keys_[pos_]; }

  /// Steps to the next key of the decoded block. Returns false once the
  /// block is used up; the caller then calls Refill.
  bool StepInBlock() { return ++pos_ < end_; }

  /// Decodes the next block, opening later segments as earlier ones
  /// drain; valid() turns false at the end of the run (or slice).
  Status Refill();

  /// Advances to the next record; valid() turns false at the end.
  Status Next() { return StepInBlock() ? Status::OK() : Refill(); }

  const RunInfo& run() const { return run_; }

 private:
  Env* env_;
  RunInfo run_;
  size_t block_bytes_;
  size_t segment_ = 0;
  std::unique_ptr<RecordReader> forward_;
  std::unique_ptr<ReverseRunReader> reverse_;
  uint64_t skip_remaining_ = 0;
  uint64_t limit_remaining_ = 0;
  std::vector<Key> keys_;  // the decoded block
  size_t pos_ = 0;
  size_t end_ = 0;
};

/// No-limit sentinel of MergeWindow: "emit until every cursor drains".
inline constexpr uint64_t kMergeNoLimit = ~uint64_t{0};

/// Contiguous window of a merged stream: drop the first `skip` records of
/// the merge order, then emit at most `limit`. The merge loop stops dead
/// once the window is served — with a limit of K, a top-K merge does k-way
/// work proportional to skip+K, not to the input volume. Skipped records
/// are merged (their cursors advance) but never reach the output or the
/// progress counter. The default window is the whole stream.
struct MergeWindow {
  uint64_t skip = 0;
  uint64_t limit = kMergeNoLimit;

  bool whole() const { return skip == 0 && limit == kMergeNoLimit; }
};

/// Merges already-initialized (possibly sliced) cursors, emitting only
/// `window` of the merge order (§2.1.2, k-way merge over a loser tree).
/// The one merge core: the file and limit-aware merges, the pruned final
/// merge and the partitioned final merge's partial merges all run through
/// it. The output is `output_path` of `env` — created, or when
/// `range.positioned`, that range of the existing file — written through
/// MakeRecordWriter. Winners are gathered into blocks of keys; each
/// block is appended in one span, and the cancel token and progress
/// counter are consulted once per block. The writer is finished before
/// this returns, so a range's exact-fill check has run. `*out` (if
/// non-null) receives the single forward segment at `output_path` with
/// its record count and key bounds.
Status MergeCursorsToSink(Env* env,
                          std::vector<std::unique_ptr<RunCursor>>* cursors,
                          const MergeIoOptions& io, const MergeWindow& window,
                          const std::string& output_path,
                          const MergeOutputRange& range, RunInfo* out);

/// Top-K merge pass: merges `runs` into `output_path` keeping only the
/// first (take_last = false) or last (take_last = true) `limit` records of
/// the merged stream. Before merging, each input cursor is clamped to the
/// `limit`-record prefix (or suffix) of its run using segment metadata
/// only — no record of a run beyond its own first/last K can survive any
/// superset merge, so the rest is never read. A limit of 0 means no limit
/// (plain KWayMergeToFile). Intermediate merge passes of a limited sort
/// use this, so every pass writes at most `limit` records.
Status KWayMergeLimitToFile(Env* env, const std::vector<RunInfo>& runs,
                            const MergeIoOptions& io, uint64_t limit,
                            bool take_last, const std::string& output_path,
                            RunInfo* out);

/// Merges `runs` into a record file at `output_path`; returns the
/// resulting single run through `*out` if non-null.
Status KWayMergeToFile(Env* env, const std::vector<RunInfo>& runs,
                       const MergeIoOptions& io,
                       const std::string& output_path, RunInfo* out);

/// Synchronous-I/O shorthand for the overload above.
Status KWayMergeToFile(Env* env, const std::vector<RunInfo>& runs,
                       size_t block_bytes, const std::string& output_path,
                       RunInfo* out);

/// Deletes every physical file of a run (reverse segments span several).
Status RemoveRunFiles(Env* env, const RunInfo& run);

}  // namespace twrs

#endif  // TWRS_MERGE_KWAY_MERGE_H_
