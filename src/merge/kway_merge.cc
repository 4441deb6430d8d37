#include "merge/kway_merge.h"

#include <algorithm>
#include <limits>

#include "heap/loser_tree.h"

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

/// Moves the winning way's next spans, while each qualifies, into
/// `out` (or drops them when `out` is null, for a skipped prefix), at most
/// `room` keys in all, and sets `*moved` to how many. A span is the
/// winner's decoded keys up to the room or the end of its block; it
/// qualifies when its last key, and so every key of it, still wins
/// against the runner-up: smaller, or equal from a lower way. Kept out of
/// line so the per-record loop stays as tight as without spans.
[[gnu::noinline]] Status MoveSpans(LoserTree* tree, RunCursor* const* ways,
                                   Key* out, size_t room, size_t* moved) {
  size_t n = 0;
  while (n < room && !tree->Exhausted()) {
    const size_t way = tree->WinnerIndex();
    RunCursor* cursor = ways[way];
    const size_t m = std::min(room - n, cursor->buffered_count());
    const Key last = cursor->buffered()[m - 1];
    size_t runner_way;
    const Key runner = tree->RunnerUp(&runner_way);
    if (last > runner || (last == runner && way > runner_way)) break;
    if (out != nullptr) std::copy_n(cursor->buffered(), m, out + n);
    n += m;
    if (cursor->SkipInBlock(m)) {
      tree->ReplaceWinner(cursor->key());
    } else {
      TWRS_RETURN_IF_ERROR(RefillWinner(tree, cursor));
    }
  }
  *moved = n;
  return Status::OK();
}

/// The merge core: runs the loser tree over `cursors`, gathers the winners
/// of `window` into output blocks and hands each to `flush(keys, n)`.
/// Ties break by way index, so the order is stable across cursors. Output
/// records that moved in spans are added to `*span_records`.
template <typename Flush>
Status MergeBlocks(std::vector<std::unique_ptr<RunCursor>>* cursors,
                   const MergeIoOptions& io, const MergeWindow& window,
                   uint64_t* span_records, Flush&& flush) {
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
    Key* const out = to_skip > 0 ? nullptr : block.data();
    size_t spans = 0;
    size_t n = 0;
    TWRS_RETURN_IF_ERROR(MoveSpans(&tree, ways.data(), out, cap, &n));
    spans += n;
    for (; n < cap && !tree.Exhausted(); ++n) {
      RunCursor* cursor = ways[tree.WinnerIndex()];
      block[n] = tree.WinnerKey();
      if (cursor->StepInBlock()) {
        tree.ReplaceWinner(cursor->key());
      } else {
        TWRS_RETURN_IF_ERROR(RefillWinner(&tree, cursor));
        size_t moved = 0;
        TWRS_RETURN_IF_ERROR(MoveSpans(&tree, ways.data(),
                                       out == nullptr ? nullptr : out + n + 1,
                                       cap - n - 1, &moved));
        spans += moved;
        n += moved;
      }
    }
    if (to_skip > 0) {
      to_skip -= n;
      continue;
    }
    *span_records += spans;
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
  writer->set_start_writeback(io.final_output);
  writer->set_sync_on_finish(io.final_output && !range.positioned);
  // Blocks arrive in merge order, so the run's bounds are the first key of
  // the first block and the last key of the last.
  Key min_key = 0;
  Key max_key = 0;
  uint64_t span_records = 0;
  TWRS_RETURN_IF_ERROR(MergeBlocks(
      cursors, io, window, &span_records, [&](const Key* keys, size_t n) {
        if (writer->count() == 0) min_key = keys[0];
        max_key = keys[n - 1];
        return writer->AppendBatch(keys, n);
      }));
  TWRS_RETURN_IF_ERROR(writer->Finish());
  if (io.counters != nullptr) {
    MergeCounters& counters = *io.counters;
    counters.span_records.fetch_add(span_records, std::memory_order_relaxed);
    counters.writeback_kicks.fetch_add(writer->writeback_kicks(),
                                       std::memory_order_relaxed);
    counters.sync_nanos.fetch_add(
        static_cast<uint64_t>(writer->sync_seconds() * 1e9),
        std::memory_order_relaxed);
  }
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

Status MergeRunSlices(Env* env, const std::vector<RunInfo>& runs,
                      const std::vector<RunSlice>& slices,
                      const MergeIoOptions& io, const MergeWindow& window,
                      const std::string& output_path,
                      const MergeOutputRange& range, RunInfo* out) {
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
                            out);
}

Status KWayMergeToFile(Env* env, const std::vector<RunInfo>& runs,
                       const MergeIoOptions& io,
                       const std::string& output_path, RunInfo* out) {
  return KWayMergeLimitToFile(env, runs, io, /*limit=*/0,
                              /*take_last=*/false, output_path, out);
}

MergeWindow ClampSlicesToLimit(const std::vector<RunInfo>& runs,
                               uint64_t limit, bool take_last,
                               std::vector<RunSlice>* slices) {
  uint64_t sliced_total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    RunSlice& slice = (*slices)[r];
    const uint64_t length =
        std::min(slice.length, runs[r].length - slice.skip);
    slice.length = std::min(length, limit);
    if (take_last) slice.skip += length - slice.length;
    sliced_total += slice.length;
  }
  MergeWindow window;
  window.limit = limit;
  if (take_last && sliced_total > limit) window.skip = sliced_total - limit;
  return window;
}

Status KWayMergeLimitToFile(Env* env, const std::vector<RunInfo>& runs,
                            const MergeIoOptions& io, uint64_t limit,
                            bool take_last, const std::string& output_path,
                            RunInfo* out) {
  std::vector<RunSlice> slices(runs.size());
  MergeWindow window;
  if (limit > 0) window = ClampSlicesToLimit(runs, limit, take_last, &slices);
  return MergeRunSlices(env, runs, slices, io, window, output_path,
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
