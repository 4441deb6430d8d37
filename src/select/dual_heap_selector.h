#ifndef TWRS_SELECT_DUAL_HEAP_SELECTOR_H_
#define TWRS_SELECT_DUAL_HEAP_SELECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/record.h"
#include "core/record_source.h"
#include "select/topk.h"
#include "util/status.h"

namespace twrs {

/// Bounded streaming top-K selector (PAPERS.md: Elmasry et al.'s bounded-
/// workspace selection). Holds at most `capacity` keys regardless of
/// stream length — the workspace is one K-key heap plus AddAll's fixed
/// kIngestBatch-key read buffer — so a selector sized to a MemoryGovernor
/// lease never exceeds it.
///
/// kAscending keeps the K smallest keys in a max-heap: its root is the
/// current K-th-smallest bound, and any smaller candidate replaces it.
/// kDescending mirrors this with a min-heap to keep the K largest. Either
/// way Take() returns the survivors ascending-sorted, matching the
/// record-file invariant.
///
/// Input is consumed a batch at a time (AddBatch, AddAll). Once the heap
/// is full, a batch runs one tight loop that compares each key against a
/// cached copy of the bound and touches the heap only when a key strictly
/// beats it, so after warm-up almost every record costs one comparison.
class DualHeapSelector {
 public:
  /// Records AddAll reads from its source per Read call (8 KiB).
  static constexpr size_t kIngestBatch = RecordSource::kReadBatch;

  DualHeapSelector(size_t capacity, SelectOrder order);

  /// Offers one record to the selector.
  void Add(Key key) { AddBatch(&key, 1); }

  /// Offers `n` records, in order: the same selection as `n` Add calls.
  void AddBatch(const Key* keys, size_t n);

  /// Offers every record of `source`, read kIngestBatch records at a time
  /// into one reused buffer. Returns the first failed read's error: OK
  /// only at a true end of input.
  Status AddAll(RecordSource* source);

  /// Records offered so far.
  uint64_t consumed() const { return consumed_; }

  /// Records currently held: min(consumed, capacity).
  size_t size() const { return heap_.size(); }

  size_t capacity() const { return capacity_; }
  SelectOrder order() const { return order_; }

  /// Current selection boundary: the key a candidate must beat to enter a
  /// full selector (the largest kept key when ascending, the smallest when
  /// descending). Requires size() == capacity() > 0.
  Key bound() const { return heap_.front(); }

  /// Drains the selector and returns the selected records in ascending key
  /// order, handing over the heap's storage. The selector is empty (but
  /// reusable) afterwards.
  std::vector<Key> Take();

 private:
  // Fills the heap, then replaces its root with every remaining key that
  // beats the bound (`before(key, bound)`), caching the bound between
  // replacements. `before` is the heap's order: std::less for the
  // ascending max-heap, std::greater for the descending min-heap.
  template <typename Before>
  void AddWith(const Key* keys, size_t n, Before before);

  const size_t capacity_;
  const SelectOrder order_;
  std::vector<Key> heap_;
  uint64_t consumed_ = 0;
};

}  // namespace twrs

#endif  // TWRS_SELECT_DUAL_HEAP_SELECTOR_H_
