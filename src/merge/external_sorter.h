#ifndef TWRS_MERGE_EXTERNAL_SORTER_H_
#define TWRS_MERGE_EXTERNAL_SORTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/record_source.h"
#include "core/run_generator.h"
#include "core/run_stats.h"
#include "io/env.h"
#include "merge/merge_plan.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "select/topk.h"
#include "util/cancel.h"
#include "util/checksum.h"
#include "util/status.h"

namespace twrs {

class Executor;

/// Run generation algorithm of the first external-mergesort phase.
enum class RunGenAlgorithm {
  kReplacementSelection,
  kTwoWayReplacementSelection,
  kLoadSortStore,
};

const char* RunGenAlgorithmName(RunGenAlgorithm algorithm);

/// Builds the run generator for `algorithm` with a `memory_records` budget:
/// BatchedReplacementSelection for RS, BatchedTwoWayReplacementSelection at
/// TwoWayOptions::Recommended for 2WRS, and LoadSortStore. The single
/// construction point shared by ExternalSorter and the benchmark harness,
/// so replayed run generation measures the same configuration the sorter
/// used.
std::unique_ptr<RunGenerator> MakeRunGenerator(RunGenAlgorithm algorithm,
                                               size_t memory_records);

/// The smallest memory budget `algorithm`'s generator accepts
/// (TwoWayOptions::kMinMemoryRecords for 2WRS, 1 record otherwise). Caps
/// how many generators may split one budget.
size_t MinRunGenMemoryRecords(RunGenAlgorithm algorithm);

/// Concurrency knobs of the pipelined execution path (src/exec). With the
/// defaults the sort is fully serial. When worker_threads > 0 or either
/// count below is > 1, the sort borrows the executor's pool (sized by its
/// capacity) for the extra run generators, every intermediate merge of
/// one plan level at once, and the final merge's partitions.
struct ParallelOptions {
  /// > 0 borrows the pool even when both counts below are 1, so that only
  /// the intermediate merges run concurrently.
  size_t worker_threads = 0;

  /// Run generators working at once: > 1 runs that many generators, each
  /// with memory_records / run_generation_threads, as tasks on the pool
  /// (the caller runs one). They take full batches from the one input and
  /// write their runs into the one run list the merge consumes, so the
  /// sort holds the same memory as a serial one, makes about this many
  /// times as many runs, and writes byte-identical output; run boundaries
  /// and RunGenStats vary from run to run. 0/1 generate runs serially on
  /// the caller.
  size_t run_generation_threads = 1;

  /// Partitions of the final merge pass: > 1 splits the key domain by
  /// sampled splitters and runs that many partial merges concurrently on
  /// the pool, each writing its disjoint byte range of the output
  /// (byte-identical to the serial pass). 0/1 keep the last pass serial.
  size_t final_merge_threads = 1;

  /// Executor whose pool the sort borrows; null means Executor::Shared().
  /// A caller-owned Executor isolates a sort's thread budget (benchmarks
  /// sizing a pool exactly). Must outlive the sort.
  Executor* executor = nullptr;
};

/// Configuration of a complete external sort.
struct ExternalSortOptions {
  RunGenAlgorithm algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;

  /// Memory budget in records for the run generation phase.
  size_t memory_records = 1 << 16;

  /// Merge fan-in (§6.1.1; the paper's experiments use 10).
  size_t fan_in = 10;

  /// Top-K selection (the LIMIT of an ORDER BY): when non-zero only
  /// `limit` records reach the output — the smallest (order == kAscending)
  /// or largest (kDescending) of the stream, written ascending-sorted
  /// either way. 0 sorts everything. A K that fits `memory_records` runs
  /// the dual-heap selection, a larger one the run-pruning merge
  /// (PlanTopKStrategy).
  uint64_t limit = 0;

  /// Which end of the key domain `limit` keeps. Ignored when limit == 0.
  SelectOrder order = SelectOrder::kAscending;

  /// Directory for runs and intermediate merge files (created if missing).
  /// Every Sort call works inside a unique subdirectory of this, so
  /// concurrent sorts — even from different processes — never collide.
  std::string temp_dir = "/tmp/twrs_sort";

  /// I/O buffer per stream.
  size_t block_bytes = kDefaultBlockBytes;

  /// Pipelined/parallel execution knobs (serial by default).
  ParallelOptions parallel;

  /// Cooperative cancellation: when non-null, the run-generation and merge
  /// loops poll the token and the sort unwinds with Status::Cancelled —
  /// scratch files removed — shortly after it fires. Must outlive the
  /// sort; a fired token never resets, so use a fresh one per sort.
  const CancelToken* cancel = nullptr;

  /// Invoked once when the sort transitions from run generation to
  /// merging, with the (much smaller) record budget the merge phases still
  /// need. The SortService hooks this to downsize a job's MemoryGovernor
  /// lease mid-flight so queued jobs admit sooner. May be called from a
  /// pool thread; must be cheap and thread-safe.
  std::function<void(size_t merge_memory_records)> on_merge_begin;

  /// Live progress counters shared with the submitting layer. When
  /// non-null, run generation adds every ingested record, every merge
  /// pass adds its emitted records, the current phase advances as the
  /// pipeline moves, and the sorter's CountingEnv mirrors bytes
  /// read/written. Must outlive the sort.
  ProgressCounters* progress = nullptr;

  /// Metrics registry receiving the per-phase latency histograms
  /// (sort.run_generation_seconds, sort.final_merge_seconds) and the
  /// run/merge sink flush timings (run_sink.flush_seconds,
  /// merge_sink.flush_seconds). Null disables all histogram recording.
  /// Must outlive the sort.
  MetricsRegistry* metrics = nullptr;
};

/// Records the merge phase of a sort configured by `options` actually
/// keeps resident: two block-sized buffers per merge input stream (the
/// read buffer and the cursor's decoded keys) and one output buffer. The
/// run-generation heaps — the `memory_records` budget — are gone by then,
/// which is what makes a mid-sort lease downsize sound.
size_t MergePhaseMemoryRecords(const ExternalSortOptions& options);

/// Timing and volume breakdown of one sort, mirroring the measurements of
/// Chapter 6 (run generation time vs total time).
struct ExternalSortResult {
  RunGenStats run_gen;
  MergeStats merge;
  double run_gen_seconds = 0.0;
  double merge_seconds = 0.0;
  double total_seconds = 0.0;
  uint64_t output_records = 0;

  /// Strategy that executed (PlanTopKStrategy of the limit and memory):
  /// kDualHeap or kRunPruningMerge for a top-K sort, kNone for a full sort.
  TopKStrategy topk_strategy = TopKStrategy::kNone;

  /// Engine I/O volume: bytes moved through the sorter's Env (runs written
  /// and re-read, intermediate merges, final output). Reads of the input
  /// RecordSource are not included — the source owns its own I/O.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// Two-phase external mergesort (Chapter 2): a pluggable run generation
/// phase (RS, 2WRS or Load-Sort-Store) followed by multi-pass fan-in-way
/// merging.
class ExternalSorter {
 public:
  /// Does not take ownership of `env`.
  ExternalSorter(Env* env, ExternalSortOptions options);

  /// Sorts `source` into the record file at `output_path`: run generation
  /// and the merge, or one dual-heap selection pass for a small top-K. On
  /// success the progress counters end in SortProgressPhase::kComplete; a
  /// failed or cancelled sort removes its scratch files and any output it
  /// created.
  Status Sort(RecordSource* source, const std::string& output_path,
              ExternalSortResult* result);

  const ExternalSortOptions& options() const { return options_; }

 private:
  Env* env_;
  ExternalSortOptions options_;
};

/// Scans a record file, verifying it is sorted; returns its record count
/// and order-independent checksum for permutation checks.
Status VerifySortedFile(Env* env, const std::string& path, uint64_t* count,
                        KeyChecksum* checksum);

}  // namespace twrs

#endif  // TWRS_MERGE_EXTERNAL_SORTER_H_
