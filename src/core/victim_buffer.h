#ifndef TWRS_CORE_VICTIM_BUFFER_H_
#define TWRS_CORE_VICTIM_BUFFER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/record.h"
#include "core/run_sink.h"
#include "util/status.h"

namespace twrs {

/// The victim buffer of 2WRS (§4.3): a sorted pool for records that fall in
/// the gap between what the BottomHeap and TopHeap streams can still emit.
///
/// Lifecycle within one run:
///  1. Bootstrap: the first records popped in the run are parked here
///     instead of being written to streams. When full, the contents are
///     sorted and the largest gap between consecutive values becomes the
///     buffer's *valid range*; values at or below the gap return to the
///     BottomHeap, values at or above it to the TopHeap, and the stream
///     bounds become the gap ends. Choosing the largest gap — rather than
///     the gap between the two heap tops — maximizes the probability that
///     future records fit the buffer (§4.3). (The thesis writes the sampled
///     records straight to streams; re-inserting them instead keeps the
///     dead zone between the heap streams exactly equal to the valid range
///     even when the input heuristic separated the heaps imperfectly — see
///     DESIGN.md §2.1. The emitted runs are identical.)
///  2. Active: input (or popped) records inside the valid range are absorbed.
///     When the buffer fills, it is sorted and split at its largest gap:
///     values below go to stream 3 (increasing), values above to stream 2
///     (decreasing). The flushed ranges nest, so streams 3 and 2 stay
///     sorted, and the valid range narrows to the new largest gap.
///  3. Run end: the remainder is flushed, ascending, to stream 3.
class VictimBuffer {
 public:
  /// A capacity of 0 disables the buffer entirely.
  explicit VictimBuffer(size_t capacity);

  bool enabled() const { return capacity_ > 0; }
  bool bootstrapping() const { return enabled() && !range_set_; }
  bool Full() const { return values_.size() >= capacity_; }
  size_t size() const { return values_.size(); }
  size_t capacity() const { return capacity_; }

  /// The records held, in no particular order.
  const std::vector<Key>& contents() const { return values_; }

  /// True when the valid range is set and contains `key` (inclusive).
  bool RangeContains(Key key) const {
    return range_set_ && range_lo_ <= key && key <= range_hi_;
  }

  /// Adds a record; requires !Full().
  void Add(Key key);

  /// Adds `n` records at once, possibly past capacity; the caller then
  /// flushes a Full() buffer. For a batch of input whose records are
  /// already counted against memory, so the overfill holds no extra ones.
  void AddSpan(const Key* keys, size_t n);

  /// Counts records currently in memory with keys strictly inside an open
  /// interval. Supplied by the caller so gap selection can avoid ranges
  /// that would swallow the heap contents.
  using RangePopulation = std::function<uint64_t(Key lo, Key hi)>;

  /// Bootstrap split (state 1 above): sorts the contents, establishes the
  /// valid range at the best gap, and returns the values at or below the
  /// gap in `*lows` (for re-insertion into the BottomHeap) and the rest in
  /// `*highs` (for the TopHeap). The caller bounds stream 4 by range_lo()
  /// and stream 1 by range_hi() afterwards. Requires bootstrapping().
  ///
  /// Gap selection: the widest gap between consecutive sample values whose
  /// interior holds at most `capacity` in-memory records (per `population`,
  /// if provided) — the paper's largest-gap rule (§4.3) with a guard for
  /// the case where the heaps' key ranges overlap, where the widest sample
  /// gap would otherwise cover most of memory and shred the run. If no gap
  /// qualifies, the least-populated gap wins.
  Status BootstrapSplit(std::vector<Key>* lows, std::vector<Key>* highs,
                        const RangePopulation& population = nullptr);

  /// Active flush (state 2). Requires an established range.
  Status FlushActive(RunSink* sink);

  /// Run-end flush (state 3): remaining records go to stream 3 ascending.
  Status FlushFinal(RunSink* sink);

  /// Clears contents and range for the next run.
  void ResetForNewRun();

  Key range_lo() const { return range_lo_; }
  Key range_hi() const { return range_hi_; }
  bool range_set() const { return range_set_; }

  /// Number of flushes performed (gap re-selections), across all runs.
  uint64_t flush_count() const { return flush_count_; }

 private:
  // Sorts values_ and returns the index i maximizing values_[i+1]-values_[i];
  // requires size() >= 2.
  size_t LargestGapIndex();

  size_t capacity_;
  std::vector<Key> values_;
  bool range_set_ = false;
  Key range_lo_ = 0;
  Key range_hi_ = 0;
  uint64_t flush_count_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_VICTIM_BUFFER_H_
