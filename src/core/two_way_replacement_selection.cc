#include "core/two_way_replacement_selection.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/block_sort.h"
#include "core/heuristics.h"
#include "core/input_buffer.h"
#include "core/victim_buffer.h"
#include "heap/double_heap.h"

namespace twrs {

namespace {

constexpr Key kKeyMin = std::numeric_limits<Key>::min();
constexpr Key kKeyMax = std::numeric_limits<Key>::max();

// Outcome of one output step. Only kConsumed frees memory for a new input
// record; the other outcomes keep the record in memory.
enum class StepResult {
  kConsumed,  // a record left the heaps (to a stream or the victim buffer)
  kStaged,    // the record was parked in the bootstrapping victim buffer
  kDiverted,  // the record was re-inserted into a heap
};

// All mutable state of one Generate() execution.
class Engine {
 public:
  Engine(const TwoWayOptions& options, RecordSource* source, RunSink* sink,
         RunGenStats* stats)
      : options_(options),
        sink_(sink),
        stats_(stats),
        heap_(options.HeapRecords()),
        input_(source, options.InputBufferRecords(),
               options.input_heuristic == InputHeuristic::kMedian),
        victim_(options.VictimBufferRecords()),
        heuristics_(options.input_heuristic, options.output_heuristic,
                    options.seed) {}

  Status Run() {
    // Fill phase (doubleHeap.fill in Algorithm 2): both heaps are eligible
    // for every record, so the input heuristic places all of them.
    Key key;
    while (heap_.size() < heap_.capacity() && input_.Next(&key)) {
      heuristics_.OnRecordSeen(key);
      const HeapSide side = heuristics_.ChooseInsertSide(key, &input_, heap_);
      heap_.Push(side, TaggedRecord{key, 0});
    }
    if (heap_.size() == 0) return sink_->Finish();

    TWRS_RETURN_IF_ERROR(sink_->BeginRun());
    heuristics_.OnRunStart(&heap_);
    while (heap_.size() > 0) {
      if (!heap_.TopIsRun(HeapSide::kBottom, current_run_) &&
          !heap_.TopIsRun(HeapSide::kTop, current_run_)) {
        // Every record in memory belongs to a later run: close this one.
        TWRS_RETURN_IF_ERROR(StartNextRun());
        continue;
      }
      StepResult result = StepResult::kDiverted;
      TWRS_RETURN_IF_ERROR(OutputOne(&result));
      if (!swept_this_run_ && DivisionEstablished()) {
        // The run's output division just formed: relocate every record the
        // input heuristic placed on the wrong side of it while the bounds
        // are still at the division (see SeparationSweep).
        TWRS_RETURN_IF_ERROR(SeparationSweep());
        swept_this_run_ = true;
      }
      if (result == StepResult::kConsumed) {
        // One record left the heaps; read replacements (Algorithm 2 keeps
        // reading while records fit the victim buffer).
        TWRS_RETURN_IF_ERROR(ReadAndInsert());
      }
    }
    TWRS_RETURN_IF_ERROR(victim_.FlushFinal(sink_));
    TWRS_RETURN_IF_ERROR(sink_->EndRun());
    return sink_->Finish();
  }

  void ExportStats() {
    if (stats_ == nullptr) return;
    stats_->diverted_next_run = diverted_;
    stats_->migrated_across = migrated_;
    stats_->victim_records = victim_records_;
    stats_->victim_flushes = victim_.flush_count();
  }

 private:
  Status StartNextRun() {
    TWRS_RETURN_IF_ERROR(victim_.FlushFinal(sink_));
    TWRS_RETURN_IF_ERROR(sink_->EndRun());
    TWRS_RETURN_IF_ERROR(sink_->BeginRun());
    ++current_run_;
    // The new run re-establishes its own output division.
    s4_bound_ = kKeyMax;
    s1_bound_ = kKeyMin;
    s4_emitted_ = false;
    s1_emitted_ = false;
    swept_this_run_ = false;
    victim_.ResetForNewRun();
    heuristics_.OnRunStart(&heap_);
    return Status::OK();
  }

  // True once this run's output division exists (set by the bootstrap split
  // or by the first emission).
  bool DivisionEstablished() const {
    return s4_bound_ != kKeyMax || s1_bound_ != kKeyMin;
  }

  // Relocates a record that its own side's stream cannot emit: into the
  // victim buffer when it fits the valid range, across to the other heap
  // when that side's stream still accepts it, or to the next run.
  Status RouteStray(TaggedRecord record, HeapSide from) {
    if (victim_.RangeContains(record.key)) {
      if (victim_.Full()) TWRS_RETURN_IF_ERROR(victim_.FlushActive(sink_));
      if (victim_.RangeContains(record.key)) {
        victim_.Add(record.key);
        ++victim_records_;
        return Status::OK();
      }
    }
    if (from == HeapSide::kBottom && record.key >= s1_bound_) {
      heap_.Push(HeapSide::kTop, record);
      ++migrated_;
      return Status::OK();
    }
    if (from == HeapSide::kTop && record.key <= s4_bound_) {
      heap_.Push(HeapSide::kBottom, record);
      ++migrated_;
      return Status::OK();
    }
    record.run = current_run_ + 1;
    heap_.Push(heuristics_.ChooseInsertSide(record.key, &input_, heap_),
               record);
    ++diverted_;
    return Status::OK();
  }

  // One-time cleanup when a run's division forms: the input heuristic may
  // have placed current-run records on the wrong side of the division
  // (guaranteed for the Random/Alternate heuristics, occasional for the
  // sampling ones). Such strays sit at the front of their heap's pop order,
  // so they can all be relocated before any emission moves the stream
  // bounds — after the sweep both heaps are perfectly range-separated and
  // the run proceeds without stranding records. The emission bounds do not
  // move during the sweep (nothing is emitted), which is what makes every
  // relocation succeed.
  Status SeparationSweep() {
    for (;;) {
      bool progressed = false;
      while (heap_.TopIsRun(HeapSide::kBottom, current_run_) &&
             heap_.Top(HeapSide::kBottom).key > s4_bound_) {
        TWRS_RETURN_IF_ERROR(
            RouteStray(heap_.Pop(HeapSide::kBottom), HeapSide::kBottom));
        progressed = true;
      }
      while (heap_.TopIsRun(HeapSide::kTop, current_run_) &&
             heap_.Top(HeapSide::kTop).key < s1_bound_) {
        TWRS_RETURN_IF_ERROR(
            RouteStray(heap_.Pop(HeapSide::kTop), HeapSide::kTop));
        progressed = true;
      }
      if (!progressed) return Status::OK();
    }
  }

  // Pops one record and routes it: victim buffer (bootstrap or range fit),
  // its own stream, the opposite heap, or the next run.
  Status OutputOne(StepResult* result) {
    const bool can_bottom = heap_.TopIsRun(HeapSide::kBottom, current_run_);
    const bool can_top = heap_.TopIsRun(HeapSide::kTop, current_run_);
    const HeapSide side =
        can_bottom && can_top
            ? heuristics_.ChooseOutputSide(heap_)
            : (can_bottom ? HeapSide::kBottom : HeapSide::kTop);
    TaggedRecord record = heap_.Pop(side);

    // Bootstrap (§4.3): the first records popped in a run are parked in the
    // victim buffer; when it fills, its largest gap becomes the valid range.
    // The sampled records then return to the heaps split at the gap, and the
    // stream bounds become the gap ends — so the dead zone between the two
    // heap streams is exactly the range the victim buffer covers, no matter
    // how imperfectly the input heuristic separated the heaps (DESIGN.md
    // §2.1; the emitted runs match the thesis' §4.5 example).
    if (victim_.bootstrapping()) {
      victim_.Add(record.key);
      if (victim_.Full()) {
        // Snapshot the current-run keys so gap selection can avoid ranges
        // that would swallow the heap contents (victim_buffer.h).
        std::vector<Key> snapshot;
        {
          std::vector<TaggedRecord> contents;
          heap_.AppendContents(&contents);
          for (const TaggedRecord& r : contents) {
            if (r.run == current_run_) snapshot.push_back(r.key);
          }
          SortKeysBlock(snapshot.data(), snapshot.size());
        }
        const VictimBuffer::RangePopulation population =
            [&snapshot](Key lo, Key hi) -> uint64_t {
          const auto begin =
              std::upper_bound(snapshot.begin(), snapshot.end(), lo);
          const auto end =
              std::lower_bound(snapshot.begin(), snapshot.end(), hi);
          return begin < end ? static_cast<uint64_t>(end - begin) : 0;
        };
        std::vector<Key> lows;
        std::vector<Key> highs;
        TWRS_RETURN_IF_ERROR(
            victim_.BootstrapSplit(&lows, &highs, population));
        for (Key k : lows) {
          heap_.Push(HeapSide::kBottom, TaggedRecord{k, current_run_});
        }
        for (Key k : highs) {
          heap_.Push(HeapSide::kTop, TaggedRecord{k, current_run_});
        }
        s4_bound_ = std::min(s4_bound_, victim_.range_lo());
        s1_bound_ = std::max(s1_bound_, victim_.range_hi());
      }
      *result = StepResult::kStaged;
      return Status::OK();
    }

    // A popped record inside the valid range belongs in the victim buffer.
    if (victim_.RangeContains(record.key)) {
      if (victim_.Full()) TWRS_RETURN_IF_ERROR(victim_.FlushActive(sink_));
      if (victim_.RangeContains(record.key)) {
        victim_.Add(record.key);
        ++victim_records_;
        heuristics_.OnOutput(side, record.key);
        *result = StepResult::kConsumed;
        return Status::OK();
      }
    }

    if (side == HeapSide::kBottom && record.key <= s4_bound_) {
      TWRS_RETURN_IF_ERROR(Emit(kStream4, side, record.key));
      *result = StepResult::kConsumed;
      return Status::OK();
    }
    if (side == HeapSide::kTop && record.key >= s1_bound_) {
      TWRS_RETURN_IF_ERROR(Emit(kStream1, side, record.key));
      *result = StepResult::kConsumed;
      return Status::OK();
    }
    // The record's own stream can no longer take it (divert rule).
    TWRS_RETURN_IF_ERROR(RouteStray(record, side));
    *result = StepResult::kDiverted;
    return Status::OK();
  }

  Status Emit(RunStream stream, HeapSide side, Key key) {
    TWRS_RETURN_IF_ERROR(sink_->Append(stream, key));
    heuristics_.OnOutput(side, key);
    if (stream == kStream4) {
      s4_bound_ = key;  // stream 4 is non-increasing
      if (!s4_emitted_) {
        s4_emitted_ = true;
        // The first output marks the division between the heaps (§4.2).
        s1_bound_ = std::max(s1_bound_, key);
      }
    } else {
      s1_bound_ = key;  // stream 1 is non-decreasing
      if (!s1_emitted_) {
        s1_emitted_ = true;
        s4_bound_ = std::min(s4_bound_, key);
      }
    }
    return Status::OK();
  }

  // Reads input records: records inside the victim's valid range are
  // absorbed there (reading on), the first record outside it goes to a heap.
  Status ReadAndInsert() {
    Key key;
    if (!input_.Next(&key)) return Status::OK();
    heuristics_.OnRecordSeen(key);
    while (victim_.range_set() && victim_.RangeContains(key)) {
      if (victim_.Full()) {
        TWRS_RETURN_IF_ERROR(victim_.FlushActive(sink_));
        if (!victim_.RangeContains(key)) break;  // range narrowed past key
      }
      victim_.Add(key);
      ++victim_records_;
      if (!input_.Next(&key)) return Status::OK();
      heuristics_.OnRecordSeen(key);
    }
    InsertRecord(key);
    return Status::OK();
  }

  void InsertRecord(Key key) {
    const bool can_bottom = key <= s4_bound_;
    const bool can_top = key >= s1_bound_;
    TaggedRecord record{key, current_run_};
    HeapSide side;
    if (can_bottom && can_top) {
      side = heuristics_.ChooseInsertSide(key, &input_, heap_);
    } else if (can_bottom) {
      side = HeapSide::kBottom;
    } else if (can_top) {
      side = HeapSide::kTop;
    } else {
      // Unusable in the current run anywhere: next run (§3.3 generalized).
      record.run = current_run_ + 1;
      side = heuristics_.ChooseInsertSide(key, &input_, heap_);
    }
    heap_.Push(side, record);
  }

  const TwoWayOptions& options_;
  RunSink* sink_;
  RunGenStats* stats_;

  DoubleHeap heap_;
  InputBuffer input_;
  VictimBuffer victim_;
  HeuristicEngine heuristics_;

  uint32_t current_run_ = 0;

  // Stream bounds for the current run: stream 4 may accept keys <=
  // s4_bound_, stream 1 keys >= s1_bound_ (DESIGN.md §2.1).
  Key s4_bound_ = kKeyMax;
  Key s1_bound_ = kKeyMin;
  bool s4_emitted_ = false;
  bool s1_emitted_ = false;
  bool swept_this_run_ = false;

  uint64_t diverted_ = 0;
  uint64_t migrated_ = 0;
  uint64_t victim_records_ = 0;
};

}  // namespace

TwoWayReplacementSelection::TwoWayReplacementSelection(TwoWayOptions options)
    : options_(options) {}

Status TwoWayReplacementSelection::Generate(RecordSource* source,
                                            RunSink* sink,
                                            RunGenStats* stats) {
  TWRS_RETURN_IF_ERROR(options_.Validate());
  const size_t first_run = sink->runs().size();
  Engine engine(options_, source, sink, stats);
  TWRS_RETURN_IF_ERROR(engine.Run());
  // A failed read ends the input like EOF; only the source can tell.
  TWRS_RETURN_IF_ERROR(source->status());
  FillStatsFromSink(*sink, first_run, stats);
  engine.ExportStats();
  return Status::OK();
}

}  // namespace twrs
