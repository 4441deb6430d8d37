#ifndef TWRS_CORE_HEURISTICS_H_
#define TWRS_CORE_HEURISTICS_H_

#include <cstdint>

#include "core/input_buffer.h"
#include "core/record.h"
#include "core/two_way_options.h"
#include "heap/double_heap.h"
#include "util/random.h"

namespace twrs {

const char* InputHeuristicName(InputHeuristic h);
const char* OutputHeuristicName(OutputHeuristic h);

/// Stateful implementation of the input and output heuristics of one 2WRS
/// execution. Per-run state (alternation phase, usefulness counters, first
/// output) is reset by OnRunStart.
class HeuristicEngine {
 public:
  HeuristicEngine(InputHeuristic input, OutputHeuristic output, uint64_t seed);

  /// Notifies the engine of every record read from the input. Maintains the
  /// running mean used as a fallback when the input buffer is disabled.
  void OnRecordSeen(Key key);

  /// Chooses the heap that stores `key` when both heaps are eligible.
  /// `buffer` may be null (or without statistics); heuristics that sample
  /// the input then fall back to the running mean of all records seen.
  HeapSide ChooseInsertSide(Key key, const InputBuffer* buffer,
                            const DoubleHeap& heap);

  /// Chooses the heap to pop when both tops belong to the current run.
  HeapSide ChooseOutputSide(const DoubleHeap& heap);

  /// Notifies that `side` produced a record (stream or victim buffer);
  /// feeds the usefulness counters and the MinDistance reference.
  void OnOutput(HeapSide side, Key key);

  /// Resets per-run state. For the Balancing input heuristic, migrates
  /// leaf records from the larger to the smaller heap until both sides are
  /// within one record of each other (§4.2).
  void OnRunStart(DoubleHeap* heap);

  InputHeuristic input_heuristic() const { return input_; }
  OutputHeuristic output_heuristic() const { return output_; }

 private:
  // Usefulness of a heap: records output by it divided by its size (§4.2).
  double Usefulness(HeapSide side, const DoubleHeap& heap) const;

  HeapSide RandomSide() {
    return rng_.OneIn2() ? HeapSide::kTop : HeapSide::kBottom;
  }

  InputHeuristic input_;
  OutputHeuristic output_;
  Random rng_;

  // Running mean over all input records (fallback for Mean/Median).
  double running_sum_ = 0.0;
  uint64_t running_count_ = 0;

  // Alternation state.
  bool insert_next_top_ = false;
  bool output_next_top_ = false;

  // Usefulness counters (reset each run).
  uint64_t outputs_bottom_ = 0;
  uint64_t outputs_top_ = 0;

  // MinDistance reference: first record output in the current run.
  bool has_first_output_ = false;
  Key first_output_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_HEURISTICS_H_
