#include "merge/kway_merge.h"

#include <algorithm>
#include <limits>

#include "merge/loser_tree.h"

namespace twrs {

RunCursor::RunCursor(Env* env, RunInfo run, size_t block_bytes)
    : env_(env),
      run_(std::move(run)),
      block_bytes_(block_bytes),
      keys_(std::max<size_t>(1, block_bytes / kRecordBytes)) {}

Status RunCursor::Init() {
  return InitSlice(0, std::numeric_limits<uint64_t>::max());
}

Status RunCursor::InitSlice(uint64_t skip, uint64_t limit) {
  segment_ = 0;
  forward_.reset();
  reverse_.reset();
  skip_remaining_ = skip;
  limit_remaining_ = limit;
  return Refill();
}

Status RunCursor::Refill() {
  pos_ = 0;
  end_ = 0;
  while (limit_remaining_ > 0) {
    // Fill from the currently open segment reader, if any. One fill never
    // reads past the slice's limit.
    const size_t cap = static_cast<size_t>(
        std::min<uint64_t>(keys_.size(), limit_remaining_));
    size_t got = 0;
    if (forward_ != nullptr) {
      TWRS_RETURN_IF_ERROR(forward_->Read(keys_.data(), cap, &got));
    } else if (reverse_ != nullptr) {
      TWRS_RETURN_IF_ERROR(reverse_->Read(keys_.data(), cap, &got));
    }
    if (got > 0) {
      end_ = got;
      limit_remaining_ -= got;
      return Status::OK();
    }
    forward_.reset();
    reverse_.reset();
    if (segment_ == run_.segments.size()) return Status::OK();
    const RunSegment& seg = run_.segments[segment_++];
    if (seg.count == 0) continue;
    if (skip_remaining_ >= seg.count) {
      // The slice starts past this whole segment: account for it from its
      // metadata count without opening any file.
      skip_remaining_ -= seg.count;
      continue;
    }
    if (seg.reverse) {
      reverse_ = std::make_unique<ReverseRunReader>(env_, seg.path,
                                                    seg.num_files,
                                                    block_bytes_);
      TWRS_RETURN_IF_ERROR(reverse_->status());
      if (skip_remaining_ > 0) {
        TWRS_RETURN_IF_ERROR(reverse_->SkipRecords(skip_remaining_));
      }
    } else {
      std::unique_ptr<SequentialFile> file;
      TWRS_RETURN_IF_ERROR(env_->NewSequentialFile(seg.path, &file));
      if (skip_remaining_ > 0) {
        TWRS_RETURN_IF_ERROR(file->Skip(skip_remaining_ * kRecordBytes));
      }
      forward_ = std::make_unique<RecordReader>(std::move(file),
                                                block_bytes_);
      TWRS_RETURN_IF_ERROR(forward_->status());
    }
    skip_remaining_ = 0;
  }
  return Status::OK();
}

namespace {

/// Records per output block: the merge's unit of one span append, one
/// cancel poll and one progress add.
constexpr size_t kOutputBlockKeys = 1024;

/// Refills the winning way's drained cursor and replays its path — the
/// out-of-line half of a merge step, taken once per input block.
Status RefillWinner(LoserTree* tree, RunCursor* cursor) {
  TWRS_RETURN_IF_ERROR(cursor->Refill());
  if (cursor->valid()) {
    tree->ReplaceWinner(cursor->key());
  } else {
    tree->RetireWinner();
  }
  return Status::OK();
}

/// The merge core: runs the loser tree over `cursors`, gathers the winners
/// of `window` into output blocks and hands each to `flush(keys, n)`.
/// Ties break by way index, so the order is stable across cursors.
template <typename Flush>
Status MergeBlocks(std::vector<std::unique_ptr<RunCursor>>* cursors,
                   const MergeIoOptions& io, const MergeWindow& window,
                   Flush&& flush) {
  const size_t k = cursors->size();
  std::vector<RunCursor*> ways(k);
  LoserTree tree(k);
  for (size_t i = 0; i < k; ++i) {
    ways[i] = (*cursors)[i].get();
    if (ways[i]->valid()) tree.SetInitial(i, ways[i]->key());
  }
  tree.Build();
  std::vector<Key> block(kOutputBlockKeys);
  uint64_t to_skip = window.skip;
  uint64_t remaining = window.limit;
  while (!tree.Exhausted() && remaining > 0) {
    if (IsCancelled(io.cancel)) return Status::Cancelled("merge cancelled");
    // While the window's prefix is being skipped, a round merges into the
    // block and discards it.
    const size_t cap = static_cast<size_t>(std::min<uint64_t>(
        kOutputBlockKeys, to_skip > 0 ? to_skip : remaining));
    size_t n = 0;
    for (; n < cap && !tree.Exhausted(); ++n) {
      RunCursor* cursor = ways[tree.WinnerIndex()];
      block[n] = tree.WinnerKey();
      if (cursor->StepInBlock()) {
        tree.ReplaceWinner(cursor->key());
      } else {
        TWRS_RETURN_IF_ERROR(RefillWinner(&tree, cursor));
      }
    }
    if (to_skip > 0) {
      to_skip -= n;
      continue;
    }
    TWRS_RETURN_IF_ERROR(flush(block.data(), n));
    if (io.progress != nullptr) io.progress->AddRecordsMerged(n);
    remaining -= n;
  }
  return Status::OK();
}

}  // namespace

Status MergeCursorsToSink(Env* env,
                          std::vector<std::unique_ptr<RunCursor>>* cursors,
                          const MergeIoOptions& io, const MergeWindow& window,
                          const std::string& output_path,
                          const MergeOutputRange& range, RunInfo* out) {
  std::unique_ptr<RecordWriter> writer;
  TWRS_RETURN_IF_ERROR(MakeRecordWriter(env, output_path, io.block_bytes,
                                        &writer, io.flush_histogram, range));
  writer->set_sync_on_finish(io.sync_output);
  // Blocks arrive in merge order, so the run's bounds are the first key of
  // the first block and the last key of the last.
  Key min_key = 0;
  Key max_key = 0;
  TWRS_RETURN_IF_ERROR(
      MergeBlocks(cursors, io, window, [&](const Key* keys, size_t n) {
        if (writer->count() == 0) min_key = keys[0];
        max_key = keys[n - 1];
        return writer->AppendBatch(keys, n);
      }));
  TWRS_RETURN_IF_ERROR(writer->Finish());
  if (out != nullptr) {
    RunInfo info;
    RunSegment seg;
    seg.path = output_path;
    seg.reverse = false;
    seg.count = writer->count();
    info.segments.push_back(std::move(seg));
    info.length = writer->count();
    info.min_key = min_key;
    info.max_key = max_key;
    *out = std::move(info);
  }
  return Status::OK();
}

Status KWayMergeToFile(Env* env, const std::vector<RunInfo>& runs,
                       const MergeIoOptions& io,
                       const std::string& output_path, RunInfo* out) {
  std::vector<std::unique_ptr<RunCursor>> cursors;
  cursors.reserve(runs.size());
  for (const RunInfo& run : runs) {
    cursors.push_back(std::make_unique<RunCursor>(env, run, io.block_bytes));
    TWRS_RETURN_IF_ERROR(cursors.back()->Init());
  }
  return MergeCursorsToSink(env, &cursors, io, MergeWindow(), output_path,
                            MergeOutputRange(), out);
}

Status KWayMergeLimitToFile(Env* env, const std::vector<RunInfo>& runs,
                            const MergeIoOptions& io, uint64_t limit,
                            bool take_last, const std::string& output_path,
                            RunInfo* out) {
  if (limit == 0) return KWayMergeToFile(env, runs, io, output_path, out);
  std::vector<std::unique_ptr<RunCursor>> cursors;
  cursors.reserve(runs.size());
  uint64_t sliced_total = 0;
  for (const RunInfo& run : runs) {
    // Only a run's own first (or last) `limit` records can appear in the
    // kept window of the merged stream: each is preceded (followed) within
    // its run by enough records to push the rest out. The clamp is pure
    // segment metadata — the dropped prefix/suffix is never read.
    const uint64_t keep = std::min<uint64_t>(run.length, limit);
    if (keep == 0) continue;
    const uint64_t skip = take_last ? run.length - keep : 0;
    cursors.push_back(std::make_unique<RunCursor>(env, run, io.block_bytes));
    TWRS_RETURN_IF_ERROR(cursors.back()->InitSlice(skip, keep));
    sliced_total += keep;
  }
  MergeWindow window;
  window.limit = limit;
  if (take_last && sliced_total > limit) window.skip = sliced_total - limit;
  return MergeCursorsToSink(env, &cursors, io, window, output_path,
                            MergeOutputRange(), out);
}

Status KWayMergeToFile(Env* env, const std::vector<RunInfo>& runs,
                       size_t block_bytes, const std::string& output_path,
                       RunInfo* out) {
  MergeIoOptions io;
  io.block_bytes = block_bytes;
  return KWayMergeToFile(env, runs, io, output_path, out);
}

Status RemoveRunFiles(Env* env, const RunInfo& run) {
  for (const RunSegment& seg : run.segments) {
    if (seg.reverse) {
      for (uint64_t f = 0; f < seg.num_files; ++f) {
        TWRS_RETURN_IF_ERROR(
            env->RemoveFile(ReverseRunWriter::FileName(seg.path, f)));
      }
    } else {
      TWRS_RETURN_IF_ERROR(env->RemoveFile(seg.path));
    }
  }
  return Status::OK();
}

}  // namespace twrs
