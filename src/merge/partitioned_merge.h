#ifndef TWRS_MERGE_PARTITIONED_MERGE_H_
#define TWRS_MERGE_PARTITIONED_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/record.h"
#include "core/run_sink.h"
#include "exec/thread_pool.h"
#include "io/env.h"
#include "merge/kway_merge.h"
#include "util/status.h"

namespace twrs {

/// What a limited (top-K) final merge avoided: whole runs never opened
/// because pruning proved they cannot reach the kept window, and records
/// excluded from the merge by slicing or partition pruning — records that
/// were never read, which is where the I/O savings come from.
struct MergePruneStats {
  uint64_t runs_pruned = 0;
  uint64_t records_pruned = 0;
};

/// Configuration of one final merge step (the last pass of MergeRuns).
struct FinalMergeSpec {
  /// Target number of concurrent partial merges; values < 2 (or a null
  /// pool, or degenerate splitters) fall back to one serial merge.
  size_t partitions = 1;

  /// Splitter sampling knobs. Sampling probes forward segments with
  /// positioned reads, so it costs seeks, not a data pass.
  size_t sample_size = 256;
  uint64_t sample_seed = 1;

  /// Pool the partial merges run on.
  ThreadPool* pool = nullptr;

  /// Top-K: when non-zero only `limit` records are written — the first of
  /// the merged stream (take_last = false) or the last (take_last = true).
  /// The serial path prunes whole runs whose sampled key bounds put them
  /// past the K-th record and clamps the rest to the K-record prefix or
  /// suffix that can still matter; the partitioned path drops partitions
  /// wholly outside the kept window and clamps the straddling one.
  uint64_t limit = 0;
  bool take_last = false;

  /// Receives what a limited merge pruned, when non-null.
  MergePruneStats* prune = nullptr;
};

/// Computes, for each splitter, how many records of `run` hold keys
/// strictly below it (`below->at(s)` for splitters[s], which must be
/// ascending and distinct). Forward segments are binary-searched with
/// block-granular positioned reads; reverse segments are scanned in one
/// ascending pass that stops early at the largest splitter. These counts
/// are what make the partitioned merge's output offsets exact.
Status PartitionPointsForRun(Env* env, const RunInfo& run,
                             const std::vector<Key>& splitters,
                             size_t block_bytes,
                             std::vector<uint64_t>* below);

/// Samples splitter candidates from `runs`: every run's key bounds plus
/// positioned probes of its forward segments, pooled through a
/// ReservoirSampler. Deterministic for a fixed seed.
Status SampleRunKeys(Env* env, const std::vector<RunInfo>& runs,
                     size_t sample_size, uint64_t seed,
                     std::vector<Key>* sample);

/// The final merge step of MergeRuns: merges `runs` into the output
/// described by `spec`, either as one merge or as `spec.partitions`
/// concurrent partial loser-tree merges over key-domain slices, each
/// writing its disjoint byte range through a RangeWritableFile. Output bytes
/// are identical to the serial pass in every mode (records are bare keys,
/// so the fully sorted stream is unique). On failure a partitioned output
/// is removed: a torn positioned file has holes, unlike the append path's
/// clean prefix.
Status FinalMergeToOutput(Env* env, const std::vector<RunInfo>& runs,
                          const MergeIoOptions& io, const FinalMergeSpec& spec,
                          const std::string& output_path, RunInfo* out);

}  // namespace twrs

#endif  // TWRS_MERGE_PARTITIONED_MERGE_H_
