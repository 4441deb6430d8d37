#ifndef TWRS_CORE_TWO_WAY_OPTIONS_H_
#define TWRS_CORE_TWO_WAY_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace twrs {

/// Input heuristics (§4.2): decide which heap stores a record that could go
/// to either (during the fill phase and for records tagged for a later run).
enum class InputHeuristic {
  kRandom = 0,     ///< pick a heap at random
  kAlternate = 1,  ///< alternate BottomHeap / TopHeap
  kMean = 2,       ///< above the input-buffer mean -> TopHeap
  kMedian = 3,     ///< above the input-buffer median -> TopHeap
  kUseful = 4,     ///< store in the heap with the best output/size ratio
  kBalancing = 5,  ///< store in the smaller heap; rebalance at run start
};

/// Output heuristics (§4.2): decide which heap emits next when both could.
enum class OutputHeuristic {
  kRandom = 0,       ///< pop a heap at random
  kAlternate = 1,    ///< alternate, starting with the BottomHeap
  kUseful = 2,       ///< pop the heap with the best output/size ratio
  kBalancing = 3,    ///< pop the larger heap
  kMinDistance = 4,  ///< pop the top closest in value to the run's first output
};

/// Which of the two 2WRS heaps an operation addresses.
enum class HeapSide {
  kBottom,  ///< max-heap; emits the decreasing stream 4
  kTop,     ///< min-heap; emits the increasing stream 1
};

/// Returns "Bottom"/"Top" for logging and test diagnostics.
const char* HeapSideName(HeapSide side);

inline constexpr int kNumInputHeuristics = 6;
inline constexpr int kNumOutputHeuristics = 5;

/// Configuration of Two-way Replacement Selection (Chapter 4). The four
/// tunables correspond to the four ANOVA factors of Chapter 5: buffer setup
/// (which buffers exist), buffer size, input heuristic and output heuristic.
/// The engine builds BatchedTwoWayReplacementSelection at Recommended();
/// the other settings are the paper's, run by TwoWayReplacementSelection.
struct TwoWayOptions {
  /// Total memory budget M in records, shared by the two heaps, the input
  /// buffer and the victim buffer — matching the paper's experiments, where
  /// the total allocation is constant across configurations (§5.2).
  size_t memory_records = 0;

  /// The smallest M Validate accepts: two heap records and one buffer
  /// record.
  static constexpr size_t kMinMemoryRecords = 3;

  /// Fraction of M dedicated to the buffers (paper levels: 0.0002, 0.002,
  /// 0.02, 0.2). Split evenly when both buffers are enabled.
  double buffer_fraction = 0.02;

  bool use_input_buffer = true;
  bool use_victim_buffer = true;

  InputHeuristic input_heuristic = InputHeuristic::kMean;
  OutputHeuristic output_heuristic = OutputHeuristic::kRandom;

  /// Seed for the randomized heuristics.
  uint64_t seed = 1;

  /// Derived sizes. Enabled buffers get at least one record each; the heaps
  /// get the remainder.
  size_t TotalBufferRecords() const;
  size_t InputBufferRecords() const;
  size_t VictimBufferRecords() const;
  size_t HeapRecords() const;

  /// Checks that the configuration is usable (positive memory, heaps of at
  /// least two records, fraction in [0, 1)).
  Status Validate() const;

  /// The paper's recommended all-round configuration (§5.3): both buffers,
  /// 2% of memory for buffers, Mean input heuristic, Random output
  /// heuristic. With the default seed it equals the field defaults.
  static TwoWayOptions Recommended(size_t memory_records, uint64_t seed = 1);
};

}  // namespace twrs

#endif  // TWRS_CORE_TWO_WAY_OPTIONS_H_
