#include "core/batched_two_way_replacement_selection.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "core/block_sort.h"
#include "core/minirun_heap.h"
#include "core/victim_buffer.h"
#include "util/random.h"

namespace twrs {

namespace {

constexpr Key kKeyMin = std::numeric_limits<Key>::min();
constexpr Key kKeyMax = std::numeric_limits<Key>::max();

using BottomHeap = MinirunHeap<DrainOrder::kDescending>;  // emits stream 4
using TopHeap = MinirunHeap<DrainOrder::kAscending>;      // emits stream 1

// Keys of `run` below `key` (or at most `key` when `inclusive`), by binary
// search in whichever order the run is stored.
template <DrainOrder kOrder>
uint64_t CountBelow(const Minirun& run, Key key, bool inclusive) {
  const auto below = [key, inclusive](Key k) {
    return inclusive ? k <= key : k < key;
  };
  if (kOrder == DrainOrder::kAscending) {
    return static_cast<uint64_t>(
        std::partition_point(run.begin, run.end, below) - run.begin);
  }
  return static_cast<uint64_t>(
      run.end - std::partition_point(run.begin, run.end,
                                     [&below](Key k) { return !below(k); }));
}

// All mutable state of one Generate() execution.
class Engine {
 public:
  Engine(const TwoWayOptions& options, size_t batch, RecordSource* source,
         RunSink* sink)
      : memory_(options.memory_records),
        batch_(batch),
        source_(source),
        sink_(sink),
        bottom_(&arena_),
        top_(&arena_),
        victim_(options.VictimBufferRecords()),
        presorted_tops_(batch),
        rng_(options.seed),
        s4_out_(sink, kStream4),
        s1_out_(sink, kStream1) {}

  Status Run() {
    TWRS_RETURN_IF_ERROR(Refill());  // the fill phase
    if (Held() == 0) return sink_->Finish();

    TWRS_RETURN_IF_ERROR(sink_->BeginRun());
    for (;;) {
      if (bottom_.empty() && top_.empty()) {
        // Everything left in memory belongs to a later run.
        if (deferred_.empty() && input_done_) break;
        TWRS_RETURN_IF_ERROR(StartNextRun());
        TWRS_RETURN_IF_ERROR(Refill());
        continue;
      }
      if (victim_.bootstrapping()) {
        TWRS_RETURN_IF_ERROR(BootstrapStep());
      } else {
        TWRS_RETURN_IF_ERROR(ChooseOutputSide() == HeapSide::kBottom
                                 ? Drain(&bottom_, kStream4)
                                 : Drain(&top_, kStream1));
      }
    }
    TWRS_RETURN_IF_ERROR(EndRun());
    return sink_->Finish();
  }

  void ExportStats(RunGenStats* stats) const {
    if (stats == nullptr) return;
    stats->diverted_next_run = diverted_;
    stats->migrated_across = migrated_;
    stats->victim_records = victim_records_;
    stats->victim_flushes = victim_.flush_count();
    stats->presorted_batches = presorted_batches_;
  }

  uint64_t peak_arena_keys() const { return arena_.peak_allocated_keys(); }

 private:
  // Records in memory: both heaps, the deferred miniruns and the victim
  // buffer. A batch is staged only while this plus the batch fits.
  uint64_t Held() const {
    return bottom_.records() + top_.records() + deferred_records_ +
           victim_.size();
  }

  bool DivisionEstablished() const {
    return s4_bound_ != kKeyMax || s1_bound_ != kKeyMin;
  }

  // The Random output heuristic, when both heaps hold current-run records.
  HeapSide ChooseOutputSide() {
    if (bottom_.empty()) return HeapSide::kTop;
    if (top_.empty()) return HeapSide::kBottom;
    return rng_.OneIn2() ? HeapSide::kTop : HeapSide::kBottom;
  }

  // The Mean input heuristic: the pooled mean of every key read so far.
  // Keys above it go to the TopHeap (§4.2).
  static Key* MeanSplit(Key* first, Key* last, double mean) {
    return std::partition_point(first, last, [mean](Key k) {
      return static_cast<double>(k) <= mean;
    });
  }

  double Mean() const {
    return seen_sum_ / static_cast<double>(seen_count_);
  }

  // True while input remains and one more batch fits in memory.
  bool BatchFits() const {
    return !input_done_ && Held() + batch_ <= memory_;
  }

  // Reads and places batches while one more fits in memory.
  Status Refill() {
    while (BatchFits()) {
      TWRS_RETURN_IF_ERROR(FlushStaged());
      BoundArena(batch_);
      const uint32_t block = arena_.Acquire(batch_);
      Key* keys = arena_.data(block);
      size_t n = 0;
      TWRS_RETURN_IF_ERROR(source_->Read(keys, batch_, &n));
      if (n < batch_) input_done_ = true;
      if (n > 0) TWRS_RETURN_IF_ERROR(PlaceBatch(block, keys, n));
      arena_.Release(block);
    }
    return Status::OK();
  }

  // Places one batch as it is when PlacePresorted can, else sorts it and
  // cuts it into spans (class comment). In sorted order the cut is:
  // BottomHeap | deferred | victim | deferred | TopHeap.
  Status PlaceBatch(uint32_t block, Key* keys, size_t n) {
    if (PlacePresorted(block, keys, n)) return Status::OK();
    SortKeysBlock(keys, n);
    for (size_t i = 0; i < n; ++i) seen_sum_ += static_cast<double>(keys[i]);
    seen_count_ += n;
    Key* const end = keys + n;
    Key* lo_end = std::upper_bound(keys, end, s4_bound_);
    Key* hi_begin = std::lower_bound(keys, end, s1_bound_);
    Key* victim_begin;
    Key* victim_end;
    if (victim_.range_set()) {
      victim_begin = std::lower_bound(keys, end, victim_.range_lo());
      victim_end = std::upper_bound(victim_begin, end, victim_.range_hi());
      lo_end = std::min(lo_end, victim_begin);
      hi_begin = std::max(hi_begin, victim_end);
    } else {
      if (hi_begin < lo_end) {
        // Keys both streams accept (before the division forms).
        lo_end = hi_begin = MeanSplit(hi_begin, lo_end, Mean());
      }
      victim_begin = victim_end = lo_end;
    }
    if (victim_end > victim_begin) {
      const size_t count = static_cast<size_t>(victim_end - victim_begin);
      victim_.AddSpan(victim_begin, count);
      victim_records_ += count;
      if (victim_.Full()) TWRS_RETURN_IF_ERROR(victim_.FlushActive(sink_));
    }
    // Close the victim span's hole so the keys no stream of this run can
    // take form one deferred minirun.
    Key* deferred_end = hi_begin;
    if (victim_end > victim_begin) {
      deferred_end = std::copy(victim_end, hi_begin, victim_begin);
    }
    if (deferred_end > lo_end) Defer(Minirun{lo_end, deferred_end, block});
    if (lo_end > keys) {
      std::reverse(keys, lo_end);  // the BottomHeap drains largest first
      bottom_.Push(Minirun{keys, lo_end, block});
    }
    if (end > hi_begin) top_.Push(Minirun{hi_begin, end, block});
    return Status::OK();
  }

  // Places a batch without sorting it when the sort would only gather
  // what is already there: every key a BottomHeap key, arriving largest
  // first, or a TopHeap key, arriving smallest first, so no key goes to
  // the victim buffer, a deferred minirun or the Mean split. The heaps get
  // the spans the sorted path would give them. Returns false, with the
  // batch untouched, at the first key that breaks the pattern: on random
  // input within a few keys.
  bool PlacePresorted(uint32_t block, Key* keys, size_t n) {
    if (s4_bound_ >= s1_bound_) return false;
    Key bottom_max = s4_bound_;
    Key top_min = s1_bound_;
    if (victim_.range_set()) {
      // A valid range at either end of the key domain leaves no key past
      // it to bound by; such a batch takes the sorted path.
      if (victim_.range_lo() == kKeyMin || victim_.range_hi() == kKeyMax) {
        return false;
      }
      bottom_max = std::min(bottom_max, victim_.range_lo() - 1);
      top_min = std::max(top_min, victim_.range_hi() + 1);
    }
    // bottom_max < top_min, so a key passes at most one of the two tests.
    Key bottom_last = bottom_max;
    Key top_last = top_min;
    for (size_t i = 0; i < n; ++i) {
      const Key key = keys[i];
      const bool bottom = key <= bottom_last;
      const bool top = key >= top_last;
      if (!(bottom || top)) return false;
      bottom_last = bottom ? key : bottom_last;
      top_last = top ? key : top_last;
    }
    // A stable split: the BottomHeap keys, already descending, to the
    // front of the batch, the TopHeap keys after them.
    Key* const tops = presorted_tops_.data();
    size_t bottom_count = 0;
    size_t top_count = 0;
    for (size_t i = 0; i < n; ++i) {
      const Key key = keys[i];
      const bool bottom = key <= bottom_max;
      keys[bottom_count] = key;
      tops[top_count] = key;
      bottom_count += bottom;
      top_count += !bottom;
    }
    std::copy(tops, tops + top_count, keys + bottom_count);
    // Summed in ascending key order, as the sorted path sums, so the Mean
    // and with it every later split comes out bit-identical.
    for (size_t i = bottom_count; i-- > 0;) {
      seen_sum_ += static_cast<double>(keys[i]);
    }
    for (size_t i = bottom_count; i < n; ++i) {
      seen_sum_ += static_cast<double>(keys[i]);
    }
    seen_count_ += n;
    ++presorted_batches_;
    if (bottom_count > 0) {
      bottom_.Push(Minirun{keys, keys + bottom_count, block});
    }
    if (n > bottom_count) {
      top_.Push(Minirun{keys + bottom_count, keys + n, block});
    }
    return true;
  }

  void Defer(Minirun run) {
    arena_.Retain(run.block);
    deferred_records_ += run.size();
    deferred_.push_back(run);
  }

  // Copies `keys`, already in `heap`'s drain order, into a new minirun.
  template <typename Heap>
  void PushCopy(Heap* heap, const std::vector<Key>& keys) {
    if (keys.empty()) return;
    const Minirun run = Copy(keys);
    heap->Push(run);
    arena_.Release(run.block);
  }

  // A new block holding `keys`, as a minirun with the caller's reference.
  Minirun Copy(const std::vector<Key>& keys) {
    BoundArena(keys.size());
    const uint32_t block = arena_.Acquire(keys.size());
    Key* copy = arena_.data(block);
    std::copy(keys.begin(), keys.end(), copy);
    return Minirun{copy, copy + keys.size(), block};
  }

  // Keeps the arena within twice the memory budget before it grows by
  // `request` keys. Held() bounds the keys the miniruns hold, not the
  // blocks they pin: a straggler left in each batch's block would pin up
  // to a batch of keys per record held. Past the bound the live keys move
  // into packed blocks: a copy of at most a memory's worth of keys, after
  // at least a memory's worth of records has drained since the last one.
  void BoundArena(size_t request) {
    if (arena_.allocated_keys() + request <= 2 * memory_) return;
    arena_.Compact(batch_, [this](auto visit) {
      bottom_.ForEach(visit);
      top_.ForEach(visit);
      for (Minirun& run : deferred_) visit(run);
    });
  }

  Status FlushStaged() {
    TWRS_RETURN_IF_ERROR(s4_out_.Flush());
    return s1_out_.Flush();
  }

  // Completes the current run: everything staged, then the victim
  // buffer's remainder.
  Status EndRun() {
    TWRS_RETURN_IF_ERROR(FlushStaged());
    TWRS_RETURN_IF_ERROR(victim_.FlushFinal(sink_));
    return sink_->EndRun();
  }

  Status StartNextRun() {
    TWRS_RETURN_IF_ERROR(EndRun());
    TWRS_RETURN_IF_ERROR(sink_->BeginRun());
    s4_bound_ = kKeyMax;
    s1_bound_ = kKeyMin;
    s4_emitted_ = false;
    s1_emitted_ = false;
    swept_ = false;
    victim_.ResetForNewRun();
    // Both heaps may take every deferred key: the Mean pivot splits each
    // deferred minirun in two.
    for (const Minirun& run : deferred_) {
      Key* split = MeanSplit(run.begin, run.end, Mean());
      if (split > run.begin) {
        std::reverse(run.begin, split);
        bottom_.Push(Minirun{run.begin, split, run.block});
      }
      if (run.end > split) top_.Push(Minirun{split, run.end, run.block});
      arena_.Release(run.block);
    }
    deferred_.clear();
    deferred_records_ = 0;
    return Status::OK();
  }

  // Bootstrap (§4.3), one record at a time as in the reference: the first
  // records of a run are parked in the victim buffer; once it is full its
  // best gap becomes the valid range, the sample returns to the heaps
  // split at the gap, and the stream bounds become the gap ends.
  Status BootstrapStep() {
    const Key key =
        ChooseOutputSide() == HeapSide::kBottom ? bottom_.Pop() : top_.Pop();
    victim_.Add(key);
    if (!victim_.Full()) return Status::OK();
    BuildRankTable();
    const VictimBuffer::RangePopulation population = [this](Key lo, Key hi) {
      const uint64_t above_lo = Rank(lo, /*inclusive=*/true);
      const uint64_t below_hi = Rank(hi, /*inclusive=*/false);
      return below_hi > above_lo ? below_hi - above_lo : 0;
    };
    TWRS_RETURN_IF_ERROR(victim_.BootstrapSplit(&lows_, &highs_, population));
    std::reverse(lows_.begin(), lows_.end());
    PushCopy(&bottom_, lows_);
    PushCopy(&top_, highs_);
    s4_bound_ = std::min(s4_bound_, victim_.range_lo());
    s1_bound_ = std::max(s1_bound_, victim_.range_hi());
    return SweepOnceDivided();
  }

  // For every sorted bootstrap sample value, the heap keys below it and at
  // or below it — one merge walk per minirun — so each gap population
  // BootstrapSplit asks for is two lookups.
  void BuildRankTable() {
    sample_ = victim_.contents();
    std::sort(sample_.begin(), sample_.end());
    below_.assign(sample_.size(), 0);
    upto_.assign(sample_.size(), 0);
    const auto walk = [this](const Key* keys, size_t n, bool reversed) {
      const auto at = [keys, n, reversed](size_t j) {
        return reversed ? keys[n - 1 - j] : keys[j];
      };
      size_t below = 0;
      size_t upto = 0;
      for (size_t i = 0; i < sample_.size(); ++i) {
        while (below < n && at(below) < sample_[i]) ++below;
        if (upto < below) upto = below;
        while (upto < n && at(upto) <= sample_[i]) ++upto;
        below_[i] += below;
        upto_[i] += upto;
      }
    };
    bottom_.ForEach(
        [&walk](const Minirun& run) { walk(run.begin, run.size(), true); });
    top_.ForEach(
        [&walk](const Minirun& run) { walk(run.begin, run.size(), false); });
  }

  // Heap keys below `key` (at or below it when `inclusive`).
  uint64_t Rank(Key key, bool inclusive) const {
    const auto it = std::lower_bound(sample_.begin(), sample_.end(), key);
    if (it != sample_.end() && *it == key) {
      const size_t i = static_cast<size_t>(it - sample_.begin());
      return inclusive ? upto_[i] : below_[i];
    }
    // Not a sample value (the key-range ends BootstrapSplit's fallback
    // asks for): search every minirun.
    uint64_t total = 0;
    bottom_.ForEach([&](const Minirun& run) {
      total += CountBelow<DrainOrder::kDescending>(run, key, inclusive);
    });
    top_.ForEach([&](const Minirun& run) {
      total += CountBelow<DrainOrder::kAscending>(run, key, inclusive);
    });
    return total;
  }

  // Once the run's output division forms — at the bootstrap split, or at
  // the first emission without a victim buffer — relocates what the Mean
  // heuristic placed on the wrong side of it, before any emission moves
  // the bounds (the reference's SeparationSweep).
  Status SweepOnceDivided() {
    if (swept_ || !DivisionEstablished()) return Status::OK();
    swept_ = true;
    return SeparationSweep();
  }

  // Relocates every current-run record on the wrong side of the new
  // division. The strays are each heap's leading keys, so TrimBefore cuts
  // them off by binary search; they are routed in the reference's pop
  // order (BottomHeap largest first, then TopHeap smallest first).
  Status SeparationSweep() {
    strays_.clear();
    bottom_.TrimBefore(s4_bound_, &strays_);
    std::sort(strays_.begin(), strays_.end(), std::greater<Key>());
    TWRS_RETURN_IF_ERROR(RouteStrays(HeapSide::kBottom));
    strays_.clear();
    top_.TrimBefore(s1_bound_, &strays_);
    std::sort(strays_.begin(), strays_.end());
    return RouteStrays(HeapSide::kTop);
  }

  // The divert rule for each stray: into the victim buffer when it fits
  // the valid range, across to the other heap when that side's stream
  // still accepts it, else to the next run.
  Status RouteStrays(HeapSide from) {
    across_.clear();
    next_run_.clear();
    for (Key key : strays_) {
      if (victim_.RangeContains(key)) {
        if (victim_.Full()) TWRS_RETURN_IF_ERROR(victim_.FlushActive(sink_));
        if (victim_.RangeContains(key)) {
          victim_.Add(key);
          ++victim_records_;
          continue;
        }
      }
      if (from == HeapSide::kBottom ? key >= s1_bound_ : key <= s4_bound_) {
        across_.push_back(key);
        ++migrated_;
      } else {
        next_run_.push_back(key);
        ++diverted_;
      }
    }
    // The strays came in `from`'s drain order, the reverse of the other
    // heap's.
    std::reverse(across_.begin(), across_.end());
    if (from == HeapSide::kBottom) {
      PushCopy(&top_, across_);
    } else {
      PushCopy(&bottom_, across_);
    }
    if (!next_run_.empty()) {
      std::sort(next_run_.begin(), next_run_.end());
      const Minirun run = Copy(next_run_);
      Defer(run);
      arena_.Release(run.block);
    }
    return Status::OK();
  }

  // One pick of the Random output heuristic. The reference flips its coin
  // per record, so each heap emits half the records; a pick here drains up
  // to a batch of records from one heap, span by span, refilling as memory
  // frees, so the heaps still share the output evenly by records. A coin
  // per span would favour the heap whose spans are longer, which shortens
  // runs on alternating input (36 runs instead of 34 at 4M records and
  // 64Ki memory).
  template <typename Heap>
  Status Drain(Heap* heap, RunStream stream) {
    size_t quota = batch_;
    while (quota > 0 && !heap->empty()) {
      size_t emitted = 0;
      TWRS_RETURN_IF_ERROR(EmitSpan(heap, stream, quota, &emitted));
      quota -= emitted;
      // Both checked here first: on random input this runs once a record.
      if (!swept_) TWRS_RETURN_IF_ERROR(SweepOnceDivided());
      if (BatchFits()) TWRS_RETURN_IF_ERROR(Refill());
    }
    return Status::OK();
  }

  // Emits up to `max` keys of the top minirun's span from `heap` to its
  // stream, or routes its head to the victim buffer when the head lies in
  // the valid range. Sets `*done` to the records that left the heap.
  template <typename Heap>
  Status EmitSpan(Heap* heap, RunStream stream, size_t max, size_t* done) {
    *done = 1;
    const Key head = heap->Top();
    if (victim_.RangeContains(head)) {
      if (victim_.Full()) TWRS_RETURN_IF_ERROR(victim_.FlushActive(sink_));
      if (victim_.RangeContains(head)) {
        heap->Pop();
        victim_.Add(head);
        ++victim_records_;
        return Status::OK();
      }
    }
    // After the sweep every heap key is one its stream accepts, and a head
    // outside the valid range keeps the whole span outside it. Before the
    // division forms, one record is emitted to establish it.
    const Key* keys;
    const size_t span = heap->TakeSpan(DivisionEstablished() ? max : 1, &keys);
    *done = span;
    const Key first = keys[0];
    const Key last = keys[span - 1];
    TWRS_RETURN_IF_ERROR(
        (stream == kStream4 ? s4_out_ : s1_out_).Append(keys, span));
    if (stream == kStream4) {
      s4_bound_ = last;
      if (!s4_emitted_) {
        s4_emitted_ = true;
        // The first output marks the division between the heaps (§4.2).
        s1_bound_ = std::max(s1_bound_, first);
      }
    } else {
      s1_bound_ = last;
      if (!s1_emitted_) {
        s1_emitted_ = true;
        s4_bound_ = std::min(s4_bound_, first);
      }
    }
    return Status::OK();
  }

  const size_t memory_;
  const size_t batch_;
  RecordSource* source_;
  RunSink* sink_;

  MinirunArena arena_;
  BottomHeap bottom_;
  TopHeap top_;
  std::vector<Minirun> deferred_;  // next-run keys, ascending
  uint64_t deferred_records_ = 0;
  VictimBuffer victim_;
  std::vector<Key> presorted_tops_;  // a presorted batch's TopHeap keys
  Random rng_;
  bool input_done_ = false;
  // The heaps' spans on their way to the sink.
  StagedRunStream s4_out_;
  StagedRunStream s1_out_;

  double seen_sum_ = 0.0;
  uint64_t seen_count_ = 0;

  // Stream bounds for the current run, as in the reference: stream 4 may
  // accept keys <= s4_bound_, stream 1 keys >= s1_bound_.
  Key s4_bound_ = kKeyMax;
  Key s1_bound_ = kKeyMin;
  bool s4_emitted_ = false;
  bool s1_emitted_ = false;
  bool swept_ = false;

  uint64_t diverted_ = 0;
  uint64_t migrated_ = 0;
  uint64_t victim_records_ = 0;
  uint64_t presorted_batches_ = 0;

  // Scratch reused across runs.
  std::vector<Key> lows_;
  std::vector<Key> highs_;
  std::vector<Key> sample_;
  std::vector<uint64_t> below_;
  std::vector<uint64_t> upto_;
  std::vector<Key> strays_;
  std::vector<Key> across_;
  std::vector<Key> next_run_;
};

}  // namespace

BatchedTwoWayReplacementSelection::BatchedTwoWayReplacementSelection(
    TwoWayOptions options)
    : options_(options) {}

size_t BatchedTwoWayReplacementSelection::BatchRecords(
    size_t memory_records) {
  return std::clamp<size_t>(memory_records / 64, 1, 1024);
}

Status BatchedTwoWayReplacementSelection::Generate(RecordSource* source,
                                                   RunSink* sink,
                                                   RunGenStats* stats) {
  TWRS_RETURN_IF_ERROR(options_.Validate());
  if (options_.input_heuristic != InputHeuristic::kMean ||
      options_.output_heuristic != OutputHeuristic::kRandom) {
    return Status::InvalidArgument(
        "batched 2WRS implements the Mean input and Random output "
        "heuristics only");
  }
  const size_t first_run = sink->runs().size();
  Engine engine(options_, BatchRecords(options_.memory_records), source,
                sink);
  const Status status = engine.Run();
  peak_arena_keys_ = engine.peak_arena_keys();
  TWRS_RETURN_IF_ERROR(status);
  FillStatsFromSink(*sink, first_run, stats);
  engine.ExportStats(stats);
  return Status::OK();
}

}  // namespace twrs
