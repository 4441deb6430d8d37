#ifndef TWRS_MERGE_PARTITIONED_MERGE_H_
#define TWRS_MERGE_PARTITIONED_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/record.h"
#include "core/run_sink.h"
#include "io/env.h"
#include "merge/kway_merge.h"
#include "merge/merge_plan.h"
#include "util/status.h"

namespace twrs {

/// Computes, for each splitter, how many records of `run` hold keys
/// strictly below it (`below->at(s)` for splitters[s], which must be
/// ascending and distinct). Every segment is binary-searched with
/// block-granular positioned reads: a forward segment as one ascending
/// extent, a reverse segment as one extent per physical file, located by
/// the files' 64-byte headers. Neither is read sequentially. These counts
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

/// The final merge step of MergeRuns: merges `runs` into `output_path`
/// under `options`, either as one merge or, with a pool and
/// options.final_merge_threads > 1, as that many concurrent partial
/// loser-tree merges over key-domain slices, each writing its disjoint
/// byte range through a RangeWritableFile. Output bytes are identical to
/// the serial pass in every mode (records are bare keys, so the fully
/// sorted stream is unique). With options.limit only the first (last for
/// options.limit_last) `limit` records are written: the serial path prunes
/// whole runs whose sampled key bounds put them past the K-th record and
/// clamps the rest to the K-record prefix or suffix that can still
/// matter; the partitioned path drops partitions wholly outside the kept
/// window and clamps the straddling one. Adds the step, its records, its
/// span records and what pruning avoided (runs never opened, records
/// never read) to `stats`. On failure a partitioned output is removed: a
/// torn positioned file has holes, unlike the append path's clean prefix.
Status FinalMergeToOutput(Env* env, const std::vector<RunInfo>& runs,
                          const MergeOptions& options,
                          const std::string& output_path, MergeStats* stats);

}  // namespace twrs

#endif  // TWRS_MERGE_PARTITIONED_MERGE_H_
