#ifndef TWRS_CORE_BATCHED_TWO_WAY_REPLACEMENT_SELECTION_H_
#define TWRS_CORE_BATCHED_TWO_WAY_REPLACEMENT_SELECTION_H_

#include <cstddef>
#include <cstdint>

#include "core/run_generator.h"
#include "core/two_way_replacement_selection.h"

namespace twrs {

/// Two-way Replacement Selection with Larson's batching applied to both
/// heaps: the cache-conscious 2WRS that the sorter runs for the §5.3
/// recommended heuristic pair (Mean input, Random output).
///
/// Input is read a batch at a time and each batch is sorted. The sorted
/// batch is cut by binary search into contiguous spans: keys inside the
/// victim buffer's valid range go to the victim buffer, keys at or below
/// the stream-4 bound become a descending minirun of the BottomHeap, keys
/// at or above the stream-1 bound an ascending minirun of the TopHeap, and
/// the keys in between, which neither stream of the current run can take,
/// one deferred minirun for the next run. Where both heaps may take a key
/// (the fill phase, a run start, deferred miniruns being promoted) the
/// Mean input heuristic splits the span at the pooled mean of every key
/// seen so far. Each heap orders only its minirun heads (MinirunHeap). The
/// Random output heuristic picks a heap, which then drains up to a batch
/// of records: each time its top minirun emits, as one span, every key it
/// holds before the heap's next-best head.
///
/// The bootstrap, separation sweep and divert rules, and the RunGenStats
/// counters, mean what they mean for TwoWayReplacementSelection, which
/// stays the record-at-a-time reference. Runs match the reference's
/// length, not its exact contents: the heuristics decide per batch and
/// per span rather than per record.
///
/// Memory: the records held — miniruns, deferred miniruns, the victim
/// buffer and the batch being placed — never exceed `memory_records`. The
/// input buffer's share of TwoWayOptions is not set aside: the staged
/// batch is the lookahead the Mean heuristic samples. The key blocks the
/// miniruns live in stay within 2 × `memory_records` keys, the bytes of
/// the reference's DoubleHeap, plus one packed block (under a batch and
/// one minirun) while they are being compacted (peak_arena_keys()).
class BatchedTwoWayReplacementSelection : public RunGenerator {
 public:
  /// `options` must pass Supports() (Generate rejects any other pair).
  explicit BatchedTwoWayReplacementSelection(TwoWayOptions options);

  Status Generate(RecordSource* source, RunSink* sink,
                  RunGenStats* stats) override;

  std::string name() const override { return "Batched2WRS"; }

  const TwoWayOptions& options() const { return options_; }

  /// True for the heuristic pair this engine implements: Mean input and
  /// Random output. Every other pair runs TwoWayReplacementSelection.
  static bool Supports(const TwoWayOptions& options);

  /// The most keys the minirun blocks held allocated during the last
  /// Generate().
  uint64_t peak_arena_keys() const { return peak_arena_keys_; }

  /// Records per batch for a memory of `memory_records`: 1/64 of memory,
  /// capped at 1024, so each heap orders about 64 minirun heads.
  static size_t BatchRecords(size_t memory_records);

 private:
  TwoWayOptions options_;
  uint64_t peak_arena_keys_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_BATCHED_TWO_WAY_REPLACEMENT_SELECTION_H_
