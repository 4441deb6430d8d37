#ifndef TWRS_CORE_TWO_WAY_REPLACEMENT_SELECTION_H_
#define TWRS_CORE_TWO_WAY_REPLACEMENT_SELECTION_H_

#include "core/run_generator.h"
#include "core/two_way_options.h"

namespace twrs {

/// Two-way Replacement Selection (Chapter 4).
///
/// Two heaps share one memory arena: the TopHeap captures ascending trends
/// (emitting the increasing stream 1) and the BottomHeap descending trends
/// (emitting the decreasing stream 4), so the algorithm is symmetric under
/// input reversal — the asymmetry that cripples RS on reverse-sorted input.
/// An input buffer gives the input heuristic a sample of upcoming records;
/// a victim buffer absorbs records falling in the gap between what the two
/// heap streams can still emit, emitting streams 3 (increasing) and 2
/// (decreasing). Each run is the concatenation 4·3·2·1.
///
/// Implementation note (see DESIGN.md §2.1): the cross-stream invariant
/// stream4 <= stream3 <= stream2 <= stream1 is enforced explicitly. A popped
/// record its own stream can no longer accept is routed to the victim
/// buffer, migrated to the opposite heap when that side's stream still
/// accepts it, or re-tagged for the next run (the "divert rule"). Diverts
/// happen only for records placed before the run's output division was
/// established; the stats report their frequency.
class TwoWayReplacementSelection : public RunGenerator {
 public:
  explicit TwoWayReplacementSelection(TwoWayOptions options);

  Status Generate(RecordSource* source, RunSink* sink,
                  RunGenStats* stats) override;

  std::string name() const override { return "2WRS"; }

  const TwoWayOptions& options() const { return options_; }

 private:
  TwoWayOptions options_;
};

}  // namespace twrs

#endif  // TWRS_CORE_TWO_WAY_REPLACEMENT_SELECTION_H_
