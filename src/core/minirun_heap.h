#ifndef TWRS_CORE_MINIRUN_HEAP_H_
#define TWRS_CORE_MINIRUN_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/record.h"
#include "heap/sift_kernel.h"

namespace twrs {

/// Keys [begin, end) of one arena block, stored in the order they drain.
struct Minirun {
  Key* begin = nullptr;
  Key* end = nullptr;
  uint32_t block = 0;

  size_t size() const { return static_cast<size_t>(end - begin); }
};

/// Key blocks that batches of input are read and sorted into, recycled
/// through a free list. A minirun (Larson 2003; thesis §3.7.1) is a slice
/// of one block, and a block stays allocated while anything refers to it:
/// each minirun cut from it holds one reference, and so does whoever
/// acquired it until the block has been cut.
///
/// A block is recycled only when its last minirun drains, so partly
/// drained miniruns can pin far more keys than they hold: one straggler
/// keeps a whole batch's block. Owners bound that with Compact().
class MinirunArena {
 public:
  /// A block of at least `records` keys, holding the caller's reference.
  uint32_t Acquire(size_t records) {
    uint32_t id;
    if (free_.empty()) {
      id = static_cast<uint32_t>(blocks_.size());
      blocks_.emplace_back();
    } else {
      id = free_.back();
      free_.pop_back();
    }
    Block& block = blocks_[id];
    if (block.keys.size() < records) {
      allocated_ += records - block.keys.size();
      peak_allocated_ = std::max(peak_allocated_, allocated_);
      block.keys.resize(records);
    }
    block.refs = 1;
    return id;
  }

  Key* data(uint32_t block) { return blocks_[block].keys.data(); }

  void Retain(uint32_t block) { ++blocks_[block].refs; }

  /// Drops one reference; the last one recycles the block.
  void Release(uint32_t block) {
    assert(blocks_[block].refs > 0);
    if (--blocks_[block].refs == 0) free_.push_back(block);
  }

  /// Keys allocated across all blocks, recycled ones included.
  uint64_t allocated_keys() const { return allocated_; }

  /// The most keys allocated at any one time.
  uint64_t peak_allocated_keys() const { return peak_allocated_; }

  /// Moves the keys of every live minirun into packed blocks of about
  /// `block_keys` keys and frees the storage of every other block, so the
  /// allocation shrinks to the keys still held. The miniruns are moved
  /// block by block and each old block is freed once its last minirun has
  /// left, so on the way the allocation grows by at most one packed block
  /// (under `block_keys` plus the largest minirun). `for_each_run(visit)`
  /// must call `visit(Minirun&)` on every minirun that holds a reference,
  /// and no one else may hold one. The miniruns keep their keys and order.
  template <typename ForEachRun>
  void Compact(size_t block_keys, ForEachRun for_each_run) {
    for (uint32_t id : free_) FreeStorage(id);
    std::vector<Minirun*> runs;
    for_each_run([&runs](Minirun& run) { runs.push_back(&run); });
    // Fewer than two runs need no sort. Skipping it also keeps GCC 12 from
    // raising a false -Wnonnull on the inlined insertion sort's memmove.
    if (runs.size() > 1) {
      std::sort(runs.begin(), runs.end(),
                [](const Minirun* a, const Minirun* b) {
                  return a->block != b->block ? a->block < b->block
                                              : a->begin < b->begin;
                });
    }
    size_t next = 0;
    while (next < runs.size()) {
      size_t end = next;
      size_t keys = 0;
      while (end < runs.size() && (end == next || keys < block_keys)) {
        keys += runs[end++]->size();
      }
      const uint32_t packed = Acquire(keys);
      Key* out = data(packed);
      for (; next < end; ++next) {
        Minirun& run = *runs[next];
        Key* begin = out;
        out = std::copy(run.begin, run.end, out);
        Retain(packed);
        Release(run.block);
        if (blocks_[run.block].refs == 0) FreeStorage(run.block);
        run = Minirun{begin, out, packed};
      }
      Release(packed);
    }
  }

 private:
  struct Block {
    std::vector<Key> keys;  // its buffer never moves while referenced
    uint32_t refs = 0;
  };

  // Frees a recycled block's storage; Acquire reallocates it.
  void FreeStorage(uint32_t id) {
    allocated_ -= blocks_[id].keys.size();
    std::vector<Key>().swap(blocks_[id].keys);
  }

  std::vector<Block> blocks_;
  std::vector<uint32_t> free_;
  uint64_t allocated_ = 0;
  uint64_t peak_allocated_ = 0;
};

/// Which end of the key order a MinirunHeap emits first.
enum class DrainOrder {
  kAscending,   ///< smallest head first (an increasing stream)
  kDescending,  ///< largest head first (a decreasing stream)
};

/// A selection heap over minirun heads: the structure that batched RS and
/// batched 2WRS order instead of one heap entry per record. Its size is
/// the number of miniruns, about memory / batch, so it stays in L1; a
/// record leaves its minirun by a pointer increment, and a whole span of
/// records leaves at once when no other head interleaves with it.
///
/// Every minirun is stored in drain order, so the keys a span emits are
/// contiguous and already in their stream's order.
template <DrainOrder kOrder>
class MinirunHeap {
 public:
  explicit MinirunHeap(MinirunArena* arena) : arena_(arena) {}

  MinirunHeap(const MinirunHeap&) = delete;
  MinirunHeap& operator=(const MinirunHeap&) = delete;

  /// True when key `a` drains before key `b`.
  static bool Before(Key a, Key b) {
    return kOrder == DrainOrder::kAscending ? a < b : a > b;
  }

  bool empty() const { return entries_.empty(); }

  /// Keys held across all miniruns.
  uint64_t records() const { return records_; }

  /// Adds a non-empty minirun, taking a reference on its block.
  void Push(Minirun run) {
    assert(run.begin < run.end);
    arena_->Retain(run.block);
    records_ += run.size();
    entries_.push_back(Entry{*run.begin, run});
    Kernel().SiftUp(entries_.size() - 1, entries_.back());
  }

  /// The key that drains next. Requires !empty().
  Key Top() const { return entries_[0].head; }

  /// The top minirun's keys, in drain order; TopSpan() of them may leave.
  const Key* TopKeys() const { return entries_[0].run.begin; }

  /// Length of the top minirun's prefix that drains no later than every
  /// other minirun's head: the records a record-at-a-time heap would emit
  /// next, all from this minirun. At least 1.
  size_t TopSpan() const {
    const Minirun& run = entries_[0].run;
    if (entries_.size() == 1) return run.size();
    Key next = entries_[1].head;
    if (entries_.size() > 2 && Before(entries_[2].head, next)) {
      next = entries_[2].head;
    }
    const auto drains_by_next = [next](Key k) { return !Before(next, k); };
    // On unordered input spans are a record or two: probe before the
    // binary search that long spans on trending input need.
    const Key* p = run.begin + 1;
    const Key* probe_end = std::min<const Key*>(run.end, run.begin + 8);
    while (p < probe_end && drains_by_next(*p)) ++p;
    if (p < probe_end) return static_cast<size_t>(p - run.begin);
    return static_cast<size_t>(
        std::partition_point(p, static_cast<const Key*>(run.end),
                             drains_by_next) -
        run.begin);
  }

  /// Removes the top minirun's first `n` keys (1 <= n <= its size).
  void Consume(size_t n) {
    Entry& top = entries_[0];
    assert(n >= 1 && n <= top.run.size());
    top.run.begin += n;
    records_ -= n;
    if (top.run.begin < top.run.end) {
      top.head = *top.run.begin;
      Kernel().SiftDownFromRoot(entries_.size(), top);
      return;
    }
    arena_->Release(top.run.block);
    const Entry last = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) Kernel().SiftDownFromRoot(entries_.size(), last);
  }

  /// Removes and returns the next key.
  Key Pop() {
    const Key key = Top();
    Consume(1);
    return key;
  }

  /// Cuts from the front of every minirun the keys that drain strictly
  /// before `bound`, appending them to `*out`, and rebuilds the heap over
  /// what remains.
  void TrimBefore(Key bound, std::vector<Key>* out) {
    size_t kept = 0;
    for (Entry& entry : entries_) {
      Minirun& run = entry.run;
      Key* cut = std::partition_point(
          run.begin, run.end, [bound](Key k) { return Before(k, bound); });
      out->insert(out->end(), run.begin, cut);
      records_ -= static_cast<uint64_t>(cut - run.begin);
      run.begin = cut;
      if (cut == run.end) {
        arena_->Release(run.block);
        continue;
      }
      entry.head = *cut;
      entries_[kept++] = entry;
    }
    entries_.resize(kept);
    for (size_t i = 1; i < kept; ++i) Kernel().SiftUp(i, entries_[i]);
  }

  /// Calls `visit(const Minirun&)` on every minirun.
  template <typename Visit>
  void ForEach(Visit visit) const {
    for (const Entry& entry : entries_) visit(entry.run);
  }

  /// Calls `visit(Minirun&)` on every minirun, which may move the
  /// minirun's keys (MinirunArena::Compact) but not change them.
  template <typename Visit>
  void ForEach(Visit visit) {
    for (Entry& entry : entries_) visit(entry.run);
  }

 private:
  struct Entry {
    Key head;  // *run.begin, cached so sifts stay inside the heap array
    Minirun run;
  };

  struct EntryBefore {
    bool operator()(const Entry& a, const Entry& b) const {
      return Before(a.head, b.head);
    }
  };

  SiftKernel<Entry, EntryBefore> Kernel() {
    return SiftKernel<Entry, EntryBefore>(entries_.data());
  }

  MinirunArena* arena_;
  std::vector<Entry> entries_;
  uint64_t records_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_MINIRUN_HEAP_H_
