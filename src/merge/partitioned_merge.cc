#include "merge/partitioned_merge.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/reverse_run_file.h"
#include "merge/splitters.h"

namespace twrs {

namespace {

/// Splitter sampling of the partitioned and pruned final merges. Sampling
/// probes forward segments with positioned reads, so it costs seeks, not a
/// data pass. The output is the same for any sample: only partition
/// balance and pruning tightness depend on it.
constexpr size_t kSampleSize = 256;
constexpr uint64_t kSampleSeed = 1;

/// Lower-bound searches over one run segment using positioned reads. A
/// segment is a list of extents: stretches of records, each ascending and
/// contiguous in one file, whose concatenation is ascending. A forward
/// segment is one extent, its whole file. A reverse segment has one per
/// physical file, in the order num_files - 1, ..., 0, located by the
/// files' headers. The extents' first keys, read once, name the extent
/// that holds a bound's boundary. Inside it, a two-granularity search
/// keeps the probe count low on seek-bound devices: a record-granular
/// binary search would pay ~log2(n) seeks per splitter, while probing
/// block *starts* first and then reading the one boundary block narrows
/// the same range in ~log2(n/records_per_block) tiny probes plus one
/// block read — and consecutive splitters usually land in the same
/// cached block.
class SegmentSearcher {
 public:
  SegmentSearcher(Env* env, const RunSegment& seg, size_t block_bytes)
      : env_(env),
        records_per_block_(std::max<size_t>(1, block_bytes / kRecordBytes)) {
    status_ = Init(seg);
  }

  const Status& status() const { return status_; }

  /// First record index in [lo_hint, count) whose key is >= bound; count
  /// when every key is smaller. Requires ascending calls (lo_hint from the
  /// previous result) for the block cache to pay off, but is correct for
  /// any hint.
  Status LowerBound(Key bound, uint64_t lo_hint, uint64_t* index) {
    TWRS_RETURN_IF_ERROR(status_);
    if (extents_.empty()) {
      *index = 0;
      return Status::OK();
    }
    // Start at the extent holding the hint and move on while the next
    // extent starts below `bound`: records before the extent found are
    // all below it, records after it all at or above it.
    size_t e = static_cast<size_t>(
                   std::upper_bound(extents_.begin(), extents_.end(), lo_hint,
                                    [](uint64_t hint, const Extent& extent) {
                                      return hint < extent.base;
                                    }) -
                   extents_.begin()) -
               1;
    while (e + 1 < extents_.size() && extents_[e + 1].first_key < bound) ++e;
    const Extent& extent = extents_[e];
    const uint64_t local_hint =
        std::min(extent.count, lo_hint > extent.base ? lo_hint - extent.base
                                                     : uint64_t{0});
    uint64_t local = 0;
    TWRS_RETURN_IF_ERROR(LowerBoundIn(e, bound, local_hint, &local));
    *index = extent.base + local;
    return Status::OK();
  }

 private:
  struct Extent {
    std::string path;
    uint64_t data_offset = 0;
    uint64_t count = 0;
    uint64_t base = 0;   // records in the extents before this one
    Key first_key = 0;   // read for every extent but the first
  };

  Status Init(const RunSegment& seg) {
    if (!seg.reverse) {
      Extent extent;
      extent.path = seg.path;
      extent.count = seg.count;
      extents_.push_back(std::move(extent));
      return Status::OK();
    }
    uint64_t base = 0;
    for (uint64_t f = seg.num_files; f-- > 0;) {
      Extent extent;
      extent.path = ReverseRunWriter::FileName(seg.path, f);
      std::unique_ptr<RandomRWFile> file;
      TWRS_RETURN_IF_ERROR(env_->NewRandomReadFile(extent.path, &file));
      ReverseFileExtent where;
      TWRS_RETURN_IF_ERROR(ReadReverseFileExtent(file.get(), extent.path,
                                                 &where));
      if (where.count > 0) {
        extent.data_offset = where.data_offset;
        extent.count = where.count;
        extent.base = base;
        base += where.count;
        if (!extents_.empty()) {
          uint8_t buf[kRecordBytes];
          TWRS_RETURN_IF_ERROR(file->ReadAt(extent.data_offset, buf,
                                            kRecordBytes));
          extent.first_key = DecodeKey(buf);
        }
        extents_.push_back(std::move(extent));
        // Keep the handle: a one-file segment is then opened only once.
        TWRS_RETURN_IF_ERROR(Keep(extents_.size() - 1, std::move(file)));
      } else {
        TWRS_RETURN_IF_ERROR(file->Close());
      }
    }
    return Status::OK();
  }

  /// LowerBound inside extent `e`, in the extent's own record indices.
  Status LowerBoundIn(size_t e, Key bound, uint64_t lo_hint,
                      uint64_t* index) {
    const uint64_t count = extents_[e].count;
    // Phase A: binary search over block-start records.
    uint64_t lo_block = lo_hint / records_per_block_;
    uint64_t hi_block = (count + records_per_block_ - 1) / records_per_block_;
    while (lo_block < hi_block) {
      const uint64_t mid = lo_block + (hi_block - lo_block) / 2;
      Key key;
      TWRS_RETURN_IF_ERROR(KeyAt(e, mid * records_per_block_, &key));
      if (key < bound) {
        lo_block = mid + 1;
      } else {
        hi_block = mid;
      }
    }
    // Every key of block lo_block (if it exists) is >= bound; the boundary
    // lies inside the previous block, unless that one starts >= bound too.
    if (lo_block == 0) {
      *index = 0;
      return Status::OK();
    }
    const uint64_t block = lo_block - 1;
    TWRS_RETURN_IF_ERROR(LoadBlock(e, block));
    *index = block * records_per_block_ +
             static_cast<uint64_t>(std::lower_bound(cache_keys_.begin(),
                                                    cache_keys_.end(), bound) -
                                   cache_keys_.begin());
    return Status::OK();
  }

  /// Makes `file` the one open handle, as extent `e`'s, closing the one
  /// before: the searches of ascending bounds visit the extents in order.
  Status Keep(size_t e, std::unique_ptr<RandomRWFile> file) {
    if (file_ != nullptr) TWRS_RETURN_IF_ERROR(file_->Close());
    file_ = std::move(file);
    open_extent_ = static_cast<int64_t>(e);
    return Status::OK();
  }

  Status OpenExtent(size_t e) {
    if (open_extent_ == static_cast<int64_t>(e)) return Status::OK();
    std::unique_ptr<RandomRWFile> file;
    TWRS_RETURN_IF_ERROR(env_->NewRandomReadFile(extents_[e].path, &file));
    return Keep(e, std::move(file));
  }

  Status KeyAt(size_t e, uint64_t index, Key* key) {
    TWRS_RETURN_IF_ERROR(OpenExtent(e));
    uint8_t buf[kRecordBytes];
    TWRS_RETURN_IF_ERROR(file_->ReadAt(
        extents_[e].data_offset + index * kRecordBytes, buf, kRecordBytes));
    *key = DecodeKey(buf);
    return Status::OK();
  }

  Status LoadBlock(size_t e, uint64_t block) {
    if (cached_extent_ == static_cast<int64_t>(e) &&
        cached_block_ == static_cast<int64_t>(block)) {
      return Status::OK();
    }
    TWRS_RETURN_IF_ERROR(OpenExtent(e));
    const uint64_t first = block * records_per_block_;
    const uint64_t records =
        std::min<uint64_t>(records_per_block_, extents_[e].count - first);
    cache_.resize(records * kRecordBytes);
    TWRS_RETURN_IF_ERROR(
        file_->ReadAt(extents_[e].data_offset + first * kRecordBytes,
                      cache_.data(), cache_.size()));
    // Decode the whole block once; the binary searches then compare native
    // keys instead of re-decoding a record per probe.
    cache_keys_.resize(records);
    DecodeKeysBatch(cache_.data(), records, cache_keys_.data());
    cached_extent_ = static_cast<int64_t>(e);
    cached_block_ = static_cast<int64_t>(block);
    return Status::OK();
  }

  Env* const env_;
  const size_t records_per_block_;
  Status status_;
  std::vector<Extent> extents_;
  std::unique_ptr<RandomRWFile> file_;
  int64_t open_extent_ = -1;
  std::vector<uint8_t> cache_;
  std::vector<Key> cache_keys_;
  int64_t cached_extent_ = -1;
  int64_t cached_block_ = -1;
};

/// One run's slice of a partition: `skip` records in, `length` records long.
struct RunSlice {
  uint64_t skip = 0;
  uint64_t length = 0;
};

/// Merges one partition: every run's slice for partition `j`, written to
/// `range` of the shared output at `output_path`. `window` restricts
/// emission to a slice of the partition's merge order — how a limited
/// merge clamps the partition straddling the K-record boundary.
Status MergePartition(Env* env, const std::vector<RunInfo>& runs,
                      const std::vector<RunSlice>& slices,
                      const MergeIoOptions& io, const MergeWindow& window,
                      const std::string& output_path,
                      const MergeOutputRange& range) {
  std::vector<std::unique_ptr<RunCursor>> cursors;
  cursors.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    if (slices[r].length == 0) continue;
    cursors.push_back(
        std::make_unique<RunCursor>(env, runs[r], io.block_bytes));
    TWRS_RETURN_IF_ERROR(
        cursors.back()->InitSlice(slices[r].skip, slices[r].length));
  }
  return MergeCursorsToSink(env, &cursors, io, window, output_path, range,
                            nullptr);
}

/// The serial limited final merge. Clamps every run to the `kept`-record
/// prefix (suffix for take_last) that can still matter, then tightens the
/// clamps with sampled key bounds: the smallest sampled key with >= kept
/// records strictly below it bounds the ascending selection from above,
/// so each run needs only its records below it — and a run with none is
/// pruned outright, its files never opened. (Mirrored around >= for
/// take_last.) The bound is an optimization, never a correctness
/// requirement: the merge window serves exactly `kept` records from
/// whatever survives the clamps.
Status PrunedSerialMerge(Env* env, const std::vector<RunInfo>& runs,
                         const MergeIoOptions& io, const FinalMergeSpec& spec,
                         uint64_t kept, uint64_t total_records,
                         const std::string& output_path, RunInfo* out) {
  const size_t n = runs.size();
  std::vector<uint64_t> skip(n, 0);
  std::vector<uint64_t> keep(n, 0);
  for (size_t r = 0; r < n; ++r) {
    keep[r] = std::min<uint64_t>(runs[r].length, kept);
    skip[r] = spec.take_last ? runs[r].length - keep[r] : 0;
  }
  if (n > 1) {
    // Candidate bounds: a modest sample is plenty — any candidate that
    // qualifies prunes correctly, a missed tighter bound only costs I/O.
    std::vector<Key> sample;
    TWRS_RETURN_IF_ERROR(SampleRunKeys(env, runs,
                                       std::min<size_t>(kSampleSize, 64),
                                       kSampleSeed, &sample));
    std::sort(sample.begin(), sample.end());
    sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
    // Probing a candidate costs I/O in every run (a block binary search
    // per segment extent), so probe outward from the boundary end of the
    // key space in doubling chunks and stop at the first candidate that
    // qualifies — it is the tightest qualifying bound in the whole
    // sample, and candidates far from the boundary are never touched
    // when a near one qualifies. If none qualifies the clamps stand
    // unrefined; the merge window still serves exactly `kept` records
    // either way.
    size_t begin = 0;
    size_t chunk = 8;
    bool refined = false;
    while (begin < sample.size() && !refined) {
      const size_t end = std::min(sample.size(), begin + chunk);
      std::vector<Key> probe;
      if (!spec.take_last) {
        probe.assign(sample.begin() + static_cast<ptrdiff_t>(begin),
                     sample.begin() + static_cast<ptrdiff_t>(end));
      } else {
        probe.assign(sample.end() - static_cast<ptrdiff_t>(end),
                     sample.end() - static_cast<ptrdiff_t>(begin));
      }
      std::vector<std::vector<uint64_t>> below(n);
      for (size_t r = 0; r < n; ++r) {
        TWRS_RETURN_IF_ERROR(PartitionPointsForRun(env, runs[r], probe,
                                                   io.block_bytes,
                                                   &below[r]));
      }
      std::vector<uint64_t> total_below(probe.size(), 0);
      for (size_t r = 0; r < n; ++r) {
        for (size_t s = 0; s < probe.size(); ++s) {
          total_below[s] += below[r][s];
        }
      }
      if (!spec.take_last) {
        for (size_t s = 0; s < probe.size(); ++s) {
          if (total_below[s] >= kept) {
            // Every kept record is strictly below probe[s].
            for (size_t r = 0; r < n; ++r) {
              keep[r] = std::min<uint64_t>(keep[r], below[r][s]);
            }
            refined = true;
            break;
          }
        }
      } else {
        for (size_t s = probe.size(); s-- > 0;) {
          if (total_records - total_below[s] >= kept) {
            // Every kept record is at or above probe[s].
            for (size_t r = 0; r < n; ++r) {
              skip[r] = std::max<uint64_t>(skip[r], below[r][s]);
              keep[r] = runs[r].length - skip[r];
            }
            refined = true;
            break;
          }
        }
      }
      begin = end;
      chunk *= 2;
    }
  }

  MergePruneStats prune;
  std::vector<std::unique_ptr<RunCursor>> cursors;
  cursors.reserve(n);
  uint64_t sliced_total = 0;
  for (size_t r = 0; r < n; ++r) {
    prune.records_pruned += runs[r].length - keep[r];
    if (keep[r] == 0) {
      if (runs[r].length > 0) ++prune.runs_pruned;
      continue;
    }
    cursors.push_back(
        std::make_unique<RunCursor>(env, runs[r], io.block_bytes));
    TWRS_RETURN_IF_ERROR(cursors.back()->InitSlice(skip[r], keep[r]));
    sliced_total += keep[r];
  }
  MergeWindow window;
  window.limit = kept;
  if (spec.take_last && sliced_total > kept) {
    window.skip = sliced_total - kept;
  }

  TWRS_RETURN_IF_ERROR(MergeCursorsToSink(env, &cursors, io, window,
                                          output_path, MergeOutputRange(),
                                          out));
  if (spec.prune != nullptr) *spec.prune = prune;
  return Status::OK();
}

/// Key bounds across runs, from the exact per-run metadata.
void RunBounds(const std::vector<RunInfo>& runs, Key* min_key, Key* max_key) {
  bool first = true;
  for (const RunInfo& run : runs) {
    if (run.length == 0) continue;
    if (first || run.min_key < *min_key) *min_key = run.min_key;
    if (first || run.max_key > *max_key) *max_key = run.max_key;
    first = false;
  }
}

}  // namespace

Status PartitionPointsForRun(Env* env, const RunInfo& run,
                             const std::vector<Key>& splitters,
                             size_t block_bytes,
                             std::vector<uint64_t>* below) {
  below->assign(splitters.size(), 0);
  if (splitters.empty()) return Status::OK();
  for (const RunSegment& seg : run.segments) {
    if (seg.count == 0) continue;
    SegmentSearcher searcher(env, seg, block_bytes);
    TWRS_RETURN_IF_ERROR(searcher.status());
    uint64_t lo = 0;
    for (size_t s = 0; s < splitters.size(); ++s) {
      TWRS_RETURN_IF_ERROR(searcher.LowerBound(splitters[s], lo, &lo));
      (*below)[s] += lo;
    }
  }
  return Status::OK();
}

Status SampleRunKeys(Env* env, const std::vector<RunInfo>& runs,
                     size_t sample_size, uint64_t seed,
                     std::vector<Key>* sample) {
  ReservoirSampler sampler(std::max<size_t>(1, sample_size), seed);
  uint64_t forward_total = 0;
  for (const RunInfo& run : runs) {
    for (const RunSegment& seg : run.segments) {
      if (!seg.reverse) forward_total += seg.count;
    }
  }
  for (const RunInfo& run : runs) {
    if (run.length == 0) continue;
    // The exact bounds are free and anchor the sample even for runs whose
    // bulk sits in reverse segments (not probed below).
    sampler.Add(run.min_key);
    sampler.Add(run.max_key);
    for (const RunSegment& seg : run.segments) {
      if (seg.reverse || seg.count == 0) continue;
      uint64_t probes = forward_total > 0
                            ? sample_size * seg.count / forward_total
                            : 0;
      probes = std::min<uint64_t>(std::max<uint64_t>(probes, 1), seg.count);
      std::unique_ptr<RandomRWFile> file;
      TWRS_RETURN_IF_ERROR(env->NewRandomReadFile(seg.path, &file));
      for (uint64_t p = 0; p < probes; ++p) {
        // Stratified midpoints: evenly spaced probes approximate the
        // segment's quantiles better than uniform positions would.
        const uint64_t index = (2 * p + 1) * seg.count / (2 * probes);
        uint8_t buf[kRecordBytes];
        TWRS_RETURN_IF_ERROR(
            file->ReadAt(index * kRecordBytes, buf, kRecordBytes));
        sampler.Add(DecodeKey(buf));
      }
      TWRS_RETURN_IF_ERROR(file->Close());
    }
  }
  *sample = sampler.sample();
  return Status::OK();
}

Status FinalMergeToOutput(Env* env, const std::vector<RunInfo>& runs,
                          const MergeIoOptions& io, const FinalMergeSpec& spec,
                          const std::string& output_path, RunInfo* out) {
  uint64_t total_records = 0;
  for (const RunInfo& run : runs) total_records += run.length;
  // A limit of 0 means no limit; a limit >= the input is a full merge.
  const uint64_t kept = spec.limit > 0
                            ? std::min<uint64_t>(spec.limit, total_records)
                            : total_records;
  const bool limited = kept < total_records;
  const uint64_t kept_bytes = kept * kRecordBytes;
  if (spec.prune != nullptr) *spec.prune = MergePruneStats();

  // Decide the effective partition count. Everything that degenerates —
  // no pool, one run, tiny inputs, splitters collapsed by skew — falls
  // back to a single merge, which is always correct. Splitter sampling
  // and boundary location cost positioned probes (seeks on a spinning
  // disk), a fixed cost per partition: a partition must span at least a
  // few I/O blocks to amortize it, so the requested count is clamped to
  // what the data volume supports before any probe is paid.
  std::vector<Key> splitters;
  size_t partitions_wanted = 0;
  if (spec.partitions > 1 && spec.pool != nullptr && runs.size() > 1) {
    const uint64_t min_partition_bytes =
        16 * std::max<size_t>(1, io.block_bytes);
    // For a limited merge the volume that gets written is the kept window,
    // so that is what partitioning must amortize over — a small K always
    // degenerates to the (pruned) serial merge.
    partitions_wanted = static_cast<size_t>(
        std::min<uint64_t>(spec.partitions,
                           kept_bytes / min_partition_bytes));
  }
  if (partitions_wanted > 1) {
    // More probes than ~64 per splitter stop improving balance; tying the
    // sample to the clamped partition count keeps the fixed seek cost
    // proportional to the parallelism actually bought.
    const size_t sample_size =
        std::min<size_t>(kSampleSize, 64 * partitions_wanted);
    std::vector<Key> sample;
    TWRS_RETURN_IF_ERROR(
        SampleRunKeys(env, runs, sample_size, kSampleSeed, &sample));
    splitters = PickSplitters(std::move(sample), partitions_wanted);
  }

  if (splitters.empty()) {
    if (limited) {
      return PrunedSerialMerge(env, runs, io, spec, kept, total_records,
                               output_path, out);
    }
    return KWayMergeToFile(env, runs, io, output_path, out);
  }

  // Exact slice boundaries: for each run, the record index where every
  // splitter's key domain begins. Runs are independent, so the per-run
  // searches fan out on the pool: each pays a few positioned probes, a
  // seek apiece on a spinning disk.
  const size_t partitions = splitters.size() + 1;
  std::vector<std::vector<uint64_t>> below(runs.size());
  {
    std::vector<TaskHandle> boundary_tasks;
    boundary_tasks.reserve(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      const RunInfo* run = &runs[r];
      std::vector<uint64_t>* run_below = &below[r];
      boundary_tasks.push_back(
          spec.pool->Submit([env, run, &splitters, &io, run_below] {
            return PartitionPointsForRun(env, *run, splitters,
                                         io.block_bytes, run_below);
          }));
    }
    Status first_error;
    for (TaskHandle& handle : boundary_tasks) {
      Status s = handle.Wait();
      if (!s.ok() && first_error.ok()) first_error = std::move(s);
    }
    TWRS_RETURN_IF_ERROR(first_error);
  }
  std::vector<std::vector<RunSlice>> slices(partitions);
  std::vector<uint64_t> partition_records(partitions, 0);
  for (size_t j = 0; j < partitions; ++j) {
    slices[j].resize(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      const uint64_t lo = j == 0 ? 0 : below[r][j - 1];
      const uint64_t hi = j + 1 == partitions ? runs[r].length : below[r][j];
      slices[j][r].skip = lo;
      slices[j][r].length = hi - lo;
      partition_records[j] += hi - lo;
    }
  }

  // Truncate-create the shared output exactly once; every partition then
  // reopens it and extends it by writing its range.
  {
    std::unique_ptr<RandomRWFile> file;
    TWRS_RETURN_IF_ERROR(env->NewRandomRWFile(output_path, &file));
    TWRS_RETURN_IF_ERROR(file->Close());
  }

  // The kept window of the merged stream in record coordinates; a full
  // merge keeps everything. Partitions wholly outside the window are
  // dropped — their runs' slices are never read, which is the partitioned
  // form of run pruning — and the straddling partition merges with a
  // window that clamps it to the K-record boundary.
  const uint64_t win_lo = spec.take_last ? total_records - kept : 0;
  const uint64_t win_hi = win_lo + kept;
  MergePruneStats prune;
  std::vector<bool> run_used(runs.size(), false);

  std::vector<TaskHandle> handles;
  handles.reserve(partitions);
  std::vector<MergeWindow> windows(partitions);
  uint64_t cum = 0;
  Status first_error;
  for (size_t j = 0; j < partitions; ++j) {
    const uint64_t p_lo = cum;
    const uint64_t p_hi = cum + partition_records[j];
    cum = p_hi;
    const uint64_t inter_lo = std::max<uint64_t>(p_lo, win_lo);
    const uint64_t inter_hi = std::min<uint64_t>(p_hi, win_hi);
    if (inter_lo >= inter_hi) {
      prune.records_pruned += partition_records[j];
      continue;
    }
    for (size_t r = 0; r < runs.size(); ++r) {
      if (slices[j][r].length > 0) run_used[r] = true;
    }
    windows[j].skip = inter_lo - p_lo;
    windows[j].limit = inter_hi - inter_lo;
    MergeOutputRange range;
    range.positioned = true;
    range.offset = (inter_lo - win_lo) * kRecordBytes;
    range.length = windows[j].limit * kRecordBytes;
    const MergeWindow* window = &windows[j];
    const std::vector<RunSlice>* partition_slices = &slices[j];
    handles.push_back(spec.pool->Submit(
        [env, &runs, partition_slices, &io, &output_path, range, window] {
          return MergePartition(env, runs, *partition_slices, io, *window,
                                output_path, range);
        }));
  }
  // Collect every partial merge before reporting the first failure, so no
  // task still references local state when this frame unwinds.
  for (TaskHandle& handle : handles) {
    Status s = handle.Wait();
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  if (!first_error.ok()) {
    // A torn positioned file has holes rather than a clean prefix.
    TWRS_IGNORE_STATUS(env->RemoveFile(output_path));
    return first_error;
  }

  if (limited && spec.prune != nullptr) {
    for (size_t r = 0; r < runs.size(); ++r) {
      if (!run_used[r] && runs[r].length > 0) ++prune.runs_pruned;
    }
    *spec.prune = prune;
  }
  if (out != nullptr) {
    RunInfo info;
    RunSegment seg;
    seg.path = output_path;
    seg.reverse = false;
    seg.count = kept;
    info.segments.push_back(std::move(seg));
    info.length = kept;
    // Exact for a full merge; for a limited one these metadata bounds of
    // the inputs merely over-cover the kept window, which is all the
    // final output's consumers need.
    RunBounds(runs, &info.min_key, &info.max_key);
    *out = std::move(info);
  }
  return Status::OK();
}

}  // namespace twrs
