#ifndef TWRS_SELECT_DUAL_HEAP_SELECTOR_H_
#define TWRS_SELECT_DUAL_HEAP_SELECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/record.h"
#include "core/record_source.h"
#include "heap/double_heap.h"
#include "select/topk.h"
#include "util/status.h"

namespace twrs {

/// Bounded streaming top-K selector on the paper's DoubleHeap (PAPERS.md:
/// Sepesi's Dualheap Selection Algorithm; Elmasry et al.'s bounded-
/// workspace selection). Holds at most `capacity` records regardless of
/// stream length — the workspace is the K-record heap plus AddAll's fixed
/// kIngestBatch-key read buffer — so a selector sized to a MemoryGovernor
/// lease never exceeds it.
///
/// kAscending keeps the K smallest keys in the Bottom side (a max-heap):
/// its root is the current K-th-smallest bound, and any smaller candidate
/// evicts it via DoubleHeap::ReplaceTop. kDescending mirrors this on the
/// Top side (a min-heap) to keep the K largest. Either way Take() returns
/// the survivors ascending-sorted, matching the record-file invariant.
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
  Key bound() const { return heap_.Top(side_).key; }

  /// Drains the selector and returns the selected records in ascending key
  /// order. The selector is empty (but reusable) afterwards.
  std::vector<Key> Take();

 private:
  // Replaces the root with every key of [keys, keys + n) that `beats` the
  // bound, caching the bound between replacements. Requires a full heap.
  template <typename Beats>
  void ReplaceLosers(const Key* keys, size_t n, Beats beats);

  const size_t capacity_;
  const SelectOrder order_;
  const HeapSide side_;
  DoubleHeap heap_;
  uint64_t consumed_ = 0;
};

/// Convenience one-pass driver: streams `source` to exhaustion through a
/// K-capacity selector (DualHeapSelector::AddAll). `out` receives the
/// selection ascending-sorted; `consumed` (optional) the stream length.
/// Returns the source's error if a read failed, leaving `out` and
/// `consumed` untouched: a failed read never passes for a short input.
Status SelectTopK(RecordSource* source, size_t k, SelectOrder order,
                  std::vector<Key>* out, uint64_t* consumed = nullptr);

}  // namespace twrs

#endif  // TWRS_SELECT_DUAL_HEAP_SELECTOR_H_
