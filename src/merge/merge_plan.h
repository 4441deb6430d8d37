#ifndef TWRS_MERGE_MERGE_PLAN_H_
#define TWRS_MERGE_MERGE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_sink.h"
#include "exec/thread_pool.h"
#include "io/env.h"
#include "io/record_io.h"
#include "merge/kway_merge.h"
#include "obs/latency_histogram.h"
#include "obs/progress.h"
#include "util/cancel.h"
#include "util/status.h"

namespace twrs {

/// Options for the multi-pass merge phase (§2.1.2 / §6.1.1).
struct MergeOptions {
  /// Runs merged simultaneously per step (the paper measures an optimum of
  /// 10 on its disk, Fig 6.1).
  size_t fan_in = 10;

  /// Read/write buffer per stream.
  size_t block_bytes = kDefaultBlockBytes;

  /// Directory for intermediate runs.
  std::string temp_dir = ".";

  /// Name prefix for intermediate runs.
  std::string temp_prefix = "merge";

  /// Delete input and intermediate runs once consumed.
  bool remove_inputs = true;

  /// Execution pool; null means fully serial. With a pool, the
  /// intermediate merges of one dependency level of the plan run on it
  /// concurrently (the plan is the serial one, so stats and output are
  /// identical to a serial merge), and so can the final pass (see
  /// final_merge_threads). Must outlive the merge. The Env must then be
  /// safe for concurrent file creation/removal (PosixEnv, MemEnv and
  /// SimDiskEnv all are).
  ThreadPool* pool = nullptr;

  /// Cooperative cancellation: polled between merge steps and, through
  /// MergeIoOptions, once per output block (1024 records) inside each
  /// k-way merge. Must outlive the merge.
  const CancelToken* cancel = nullptr;

  /// Partitions of the *final* merge step. Values > 1 (with a pool) split
  /// the key domain by sampled splitters and run that many partial
  /// loser-tree merges concurrently, each writing its disjoint byte range
  /// of the output through a RangeWritableFile — byte-identical to the serial
  /// pass, since records are bare keys and the sorted stream is unique.
  /// 0 and 1 keep the final pass serial. Stats are unaffected: the final
  /// pass still counts as one merge step writing every record once.
  size_t final_merge_threads = 1;

  /// Live progress: every record emitted by any merge pass is added (once
  /// per output block) to `progress->AddRecordsMerged`. Must outlive the
  /// merge.
  ProgressCounters* progress = nullptr;

  /// When non-null, every block write of a merge output file records its
  /// wall time here. Must outlive the merge.
  LatencyHistogram* flush_histogram = nullptr;

  /// Top-K: when non-zero every merge pass keeps only `limit` records of
  /// its merged stream — the first (limit_last = false) or the last
  /// (limit_last = true). Intermediate passes clamp each input run to the
  /// K-record prefix/suffix that can still matter (metadata-only) and the
  /// final pass additionally prunes whole runs via sampled key bounds, so
  /// a limited merge reads strictly less than a full one whenever pruning
  /// bites. The output is the same bytes a full merge followed by
  /// head/tail truncation would produce.
  uint64_t limit = 0;
  bool limit_last = false;
};

/// The I/O options of one merge under `options`. Only the final pass
/// (`final_pass`) writes back and syncs its output, so "sort returned
/// OK" means the output is durable; intermediate runs are scratch and
/// never written back or synced.
MergeIoOptions MergeIoOptionsFor(const MergeOptions& options,
                                 bool final_pass);

/// Merge-phase statistics.
struct MergeStats {
  uint64_t merge_steps = 0;      ///< k-way merge operations performed
  uint64_t records_written = 0;  ///< total records written (I/O volume proxy)
  uint64_t intermediate_runs = 0;

  /// Records MergeRuns' merges (intermediate, final and every partial
  /// merge of a partitioned final merge) moved in whole-span copies rather
  /// than one loser-tree step each: every record of a one-run final pass,
  /// few on random runs (see MergeCursorsToSink).
  uint64_t span_records = 0;

  /// The final output's durability cost: seconds its one Sync waited, and
  /// the writeback kicks its writers issued before it (see
  /// RecordWriter::set_start_writeback), summed over a partitioned final
  /// merge's ranges.
  double output_sync_seconds = 0;
  uint64_t output_writeback_kicks = 0;

  /// Limited (top-K) merges only: runs the final pass never opened, and
  /// records its pruning excluded from the merge. (Intermediate passes
  /// prune too; their savings surface directly in bytes_read.) Both 0 for
  /// a full merge.
  uint64_t runs_pruned = 0;
  uint64_t records_pruned = 0;
};

/// One merge of a merge plan. Inputs name nodes: node i < #runs is input
/// run i, node #runs + s is the output of step s.
struct MergeStep {
  std::vector<size_t> inputs;
  uint64_t records = 0;  ///< records written: min(sum of inputs, limit)
  size_t level = 0;      ///< 1 + the deepest step among the inputs
};

/// Knuth's optimum merge pattern (TAOCP 5.4.9): a Huffman tree of
/// arity `fan_in` over the runs, weighted by records written. Each run
/// weighs min(length, limit) and a merge's output min(sum, limit), where
/// a `limit` of 0 caps nothing; ties go to the lower node index. When
/// (n - 1) mod (fan_in - 1) != 0 the first merge takes
/// 2 + (n - 2) mod (fan_in - 1) runs, the smallest, so that every later
/// merge is full. The plan has as many merges as full fan-in batches
/// taken in FIFO order would, and with no limit it writes the fewest
/// records of any merge tree whose merges take at most fan_in runs.
/// Every step comes after the steps it consumes, and the last step is
/// the final merge. One run still gets one step, so the output is always
/// a fresh forward file; no runs get no steps. Requires fan_in >= 2.
std::vector<MergeStep> PlanMerges(const std::vector<uint64_t>& run_lengths,
                                  size_t fan_in, uint64_t limit);

/// Merges `runs` into one sorted sequence at `output_path` by the steps
/// of PlanMerges, so a record is merged about log_fanin(#runs) times,
/// fewer when it sits in a short run. With zero input runs an empty
/// output file is produced.
Status MergeRuns(Env* env, std::vector<RunInfo> runs,
                 const MergeOptions& options, const std::string& output_path,
                 MergeStats* stats);

}  // namespace twrs

#endif  // TWRS_MERGE_MERGE_PLAN_H_
