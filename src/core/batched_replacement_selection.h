#ifndef TWRS_CORE_BATCHED_REPLACEMENT_SELECTION_H_
#define TWRS_CORE_BATCHED_REPLACEMENT_SELECTION_H_

#include <cstddef>
#include <cstdint>

#include "core/run_generator.h"

namespace twrs {

/// Options for batched replacement selection.
struct BatchedReplacementSelectionOptions {
  /// Total memory budget in records.
  size_t memory_records = 0;

  /// Records per minirun (Larson's batch). Larger batches mean a smaller
  /// selection structure (fewer cache misses, cheaper comparisons) but a
  /// coarser replacement granularity.
  size_t batch_records = 1024;
};

/// Batched replacement selection (Larson 2003; §3.7.1 of the thesis): a
/// cache-conscious variant of RS.
///
/// Instead of inserting input records into one large heap, records are read
/// in batches, each batch is sorted into a *minirun*, and the selection
/// structure (a MinirunHeap, the loser tree shared with batched 2WRS) only
/// merges the minirun heads — so its size is the number of miniruns, not
/// the number of records. Replacing an emitted record touches one sorted
/// array sequentially and replays one tree path instead of walking a heap
/// branch, which is what removes most cache misses. Short spans are staged
/// and reach the sink up to 1024 keys a call (StagedRunStream), and the
/// stage is flushed before each batch is read. Records of a new batch that
/// are smaller than the last output cannot extend the current run; they
/// form a deferred minirun for the next run, mirroring RS's next-run
/// marking at batch granularity. Run lengths on random input remain about twice the memory;
/// the boundary behaviour is slightly coarser than record-at-a-time RS.
class BatchedReplacementSelection : public RunGenerator {
 public:
  explicit BatchedReplacementSelection(
      BatchedReplacementSelectionOptions options);

  Status Generate(RecordSource* source, RunSink* sink,
                  RunGenStats* stats) override;

  std::string name() const override { return "BatchedRS"; }

  /// The most keys the minirun blocks held allocated during the last
  /// Generate(): at most 2 × `memory_records`, plus one packed block
  /// (under two batches) while they are being compacted.
  uint64_t peak_arena_keys() const { return peak_arena_keys_; }

 private:
  BatchedReplacementSelectionOptions options_;
  uint64_t peak_arena_keys_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_BATCHED_REPLACEMENT_SELECTION_H_
