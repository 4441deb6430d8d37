#ifndef TWRS_SHARD_SHARDED_SORTER_H_
#define TWRS_SHARD_SHARDED_SORTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/record.h"
#include "core/record_source.h"
#include "io/counting_env.h"
#include "io/env.h"
#include "merge/external_sorter.h"
#include "shard/splitters.h"
#include "util/status.h"

namespace twrs {

class Executor;

/// Configuration of a sharded external sort.
struct ShardedSortOptions {
  /// Range shards sorted concurrently. 1 degenerates to a plain
  /// ExternalSorter; must be at least 1.
  size_t shards = 2;

  /// Reservoir size used to pick the range splitters. Larger samples give
  /// more even shards; must be at least 1.
  size_t sample_size = 4096;

  /// Seed of the deterministic sampling RNG.
  uint64_t sample_seed = 1;

  /// I/O buffer of the purely sequential passes the sharded path adds
  /// (sampling/staging, partition). Much larger than the per-stream sort
  /// buffers: these passes stream one file end to end, so big blocks
  /// amortize positioning cost on seek-bound disks.
  size_t split_block_bytes = 1 << 20;

  /// Per-shard external sort configuration. Its temp_dir doubles as the
  /// sharded sorter's scratch root (a unique subdirectory is created per
  /// Sort call), and its parallel knobs apply inside each shard's sort.
  ExternalSortOptions sort;

  /// Executor the per-shard sorts run on; null = Executor::Shared(). The
  /// shards' own pipelined features borrow from the same executor unless
  /// `sort.parallel` says otherwise.
  Executor* executor = nullptr;
};

/// Breakdown of one sharded sort.
struct ShardedSortResult {
  uint64_t input_records = 0;
  uint64_t output_records = 0;

  /// Engine I/O volume across every pass (staging, partition, the shards'
  /// complete sorts — whose final merges write the output directly),
  /// mirroring ExternalSortResult. The removed concatenation pass used to
  /// add one full read + write of the output on top of this.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  /// Splitters actually used (effective shards = splitters.size() + 1).
  std::vector<Key> splitters;

  /// Records routed to each shard.
  std::vector<uint64_t> shard_records;

  /// Per-shard sort breakdowns, in shard order.
  std::vector<ExternalSortResult> shard_results;

  double split_seconds = 0.0;  ///< sampling + partition passes
  /// Concurrent per-shard sorts (wall clock), including each shard's final
  /// merge writing its byte range of the output directly — there is no
  /// separate concatenation pass to time anymore.
  double sort_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Sorts via range sharding: samples the input to pick splitters, writes
/// range-disjoint shard files, and runs a complete external sort per shard
/// concurrently on the executor. Shard byte offsets in the output are known
/// before any sort starts (ranges are disjoint and shard record counts are
/// exact from the partition pass), so each shard's final merge writes its
/// [offset, offset+len) of the real output through a RangeWritableFile — the
/// old concatenation pass, one full read + write of the output, is gone.
/// The output file is byte-identical to what the serial ExternalSorter
/// produces for the same input.
class ShardedSorter {
 public:
  /// Does not take ownership of `env`.
  ShardedSorter(Env* env, ShardedSortOptions options);

  /// Sorts `source` into the record file at `output_path`. Streaming inputs
  /// are staged to a scratch file while being sampled (their range is
  /// unknown up front), costing one extra read+write pass over SortFile.
  Status Sort(RecordSource* source, const std::string& output_path,
              ShardedSortResult* result);

  /// Sorts the record file at `input_path` into `output_path`, sampling
  /// directly from the file (no staging copy). The input file is left
  /// intact.
  Status SortFile(const std::string& input_path,
                  const std::string& output_path, ShardedSortResult* result);

  const ShardedSortOptions& options() const { return options_; }

 private:
  Status Validate() const;

  /// Shared tail of both entry points: partitions `staged_path` by the
  /// splitters picked from `sample`, then sorts every shard concurrently,
  /// each writing its precomputed byte range of `output_path` directly.
  /// Removes `staged_path` when owned.
  /// `prior_seconds` is the caller's sampling/staging time, folded into the
  /// split and total timings. `env` is the operation's counting decorator;
  /// all passes (including the per-shard sorts) run through it.
  Status SortStaged(CountingEnv* env, const std::string& staged_path,
                    bool remove_staged, const std::string& shard_dir,
                    const std::vector<Key>& sample, uint64_t input_records,
                    double prior_seconds, const std::string& output_path,
                    ShardedSortResult* result);

  /// Best-effort removal of everything under shard_dir after a failure —
  /// shard and sorted files, the owned staging copy, and the scratch
  /// directories of per-shard sorts that failed partway — so a failed sort
  /// does not leave up to 2x the input behind on disk.
  void CleanupScratch(const std::string& staged_path, bool remove_staged,
                      const std::string& shard_dir);

  /// shards == 1 short-circuit: one plain external sort, no partitioning.
  Status SortUnsharded(RecordSource* source, const std::string& output_path,
                       ShardedSortResult* result);

  Env* env_;
  ShardedSortOptions options_;
};

}  // namespace twrs

#endif  // TWRS_SHARD_SHARDED_SORTER_H_
