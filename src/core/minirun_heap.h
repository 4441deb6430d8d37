#ifndef TWRS_CORE_MINIRUN_HEAP_H_
#define TWRS_CORE_MINIRUN_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/record.h"
#include "heap/loser_tree.h"

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

/// The selection structure that batched RS and batched 2WRS order instead
/// of one heap entry per record: a loser tree (heap/loser_tree.h) over
/// minirun slots, keyed by each minirun's head. Its size is the number of
/// miniruns, about memory / batch, so it stays in L1; a record leaves its
/// minirun by a pointer increment, and a whole span of records leaves at
/// once when no other head interleaves with it.
///
/// Every minirun is stored in drain order, so the keys a span emits are
/// contiguous and already in their stream's order. The tree orders a
/// kDescending heap by complemented keys, and equal heads by slot. A Push
/// takes the slot of a drained minirun and replays its path. Only when
/// none is free does the tree grow; that, and TrimBefore, which moves
/// many heads, mark it stale, and the next access rebuilds it.
template <DrainOrder kOrder>
class MinirunHeap {
 public:
  explicit MinirunHeap(MinirunArena* arena) : arena_(arena), tree_(0) {}

  MinirunHeap(const MinirunHeap&) = delete;
  MinirunHeap& operator=(const MinirunHeap&) = delete;

  /// True when key `a` drains before key `b`.
  static bool Before(Key a, Key b) {
    return kOrder == DrainOrder::kAscending ? a < b : a > b;
  }

  bool empty() const { return records_ == 0; }

  /// Keys held across all miniruns.
  uint64_t records() const { return records_; }

  /// Adds a non-empty minirun, taking a reference on its block.
  void Push(Minirun run) {
    assert(run.begin < run.end);
    arena_->Retain(run.block);
    records_ += run.size();
    if (free_.empty()) {
      slots_.push_back(run);
      stale_ = true;
      return;
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = run;
    if (!stale_) tree_.Update(slot, TreeKey(*run.begin));
  }

  /// The key that drains next. Requires !empty().
  Key Top() { return TreeKey(Tree().WinnerKey()); }

  /// Removes the next span: the longest prefix of the winning minirun,
  /// at most `max` keys (>= 1), whose keys drain before every other head
  /// (an equal head drains first when its slot is lower). Points `*keys`
  /// at the span, in drain order, and returns its length. The keys stay
  /// readable until the arena next acquires or compacts a block. Requires
  /// !empty().
  ///
  /// The winner's next key is replayed after its first record; a slot
  /// that wins again gallops through its minirun against the runner-up,
  /// so a span costs one replay when short and one search when long.
  size_t TakeSpan(size_t max, const Key** keys) {
    assert(!empty() && max >= 1);
    LoserTree& tree = Tree();
    const size_t slot = tree.WinnerIndex();
    Minirun& run = slots_[slot];
    Key* const first = run.begin;
    Key* const limit = first + std::min(max, run.size());
    Key* next = first + 1;
    bool replayed = false;  // the tree already holds *next for `slot`
    if (next < limit) {
      tree.ReplaceWinner(TreeKey(*next));
      if (tree.WinnerIndex() == slot) {
        next = SpanEnd(tree, slot, next + 1, limit);
      } else {
        replayed = true;
      }
    }
    if (!replayed) {
      if (next < run.end) {
        tree.ReplaceWinner(TreeKey(*next));
      } else {
        tree.RetireWinner();
      }
    }
    const size_t n = static_cast<size_t>(next - first);
    records_ -= n;
    run.begin = next;
    if (run.begin == run.end) Free(slot);
    *keys = first;
    return n;
  }

  /// Removes and returns the next key.
  Key Pop() {
    const Key* key;
    TakeSpan(1, &key);
    return *key;
  }

  /// Cuts from the front of every minirun the keys that drain strictly
  /// before `bound`, appending them to `*out`.
  void TrimBefore(Key bound, std::vector<Key>* out) {
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      Minirun& run = slots_[slot];
      if (run.begin == run.end) continue;
      Key* cut = std::partition_point(
          run.begin, run.end, [bound](Key k) { return Before(k, bound); });
      out->insert(out->end(), run.begin, cut);
      records_ -= static_cast<uint64_t>(cut - run.begin);
      run.begin = cut;
      if (cut == run.end) Free(slot);
    }
    stale_ = true;
  }

  /// Calls `visit(const Minirun&)` on every minirun.
  template <typename Visit>
  void ForEach(Visit visit) const {
    for (const Minirun& run : slots_) {
      if (run.begin != run.end) visit(run);
    }
  }

  /// Calls `visit(Minirun&)` on every minirun, which may move the
  /// minirun's keys (MinirunArena::Compact) but not change them.
  template <typename Visit>
  void ForEach(Visit visit) {
    for (Minirun& run : slots_) {
      if (run.begin != run.end) visit(run);
    }
  }

 private:
  // The tree's key for `key`: itself, or its complement for a descending
  // heap, so the tree's smallest key is always the one that drains next.
  // Complementing is its own inverse.
  static Key TreeKey(Key key) {
    return kOrder == DrainOrder::kAscending ? key : ~key;
  }

  LoserTree& Tree() {
    if (stale_) Rebuild();
    return tree_;
  }

  // Plays a new tournament over every slot; drained ones stay exhausted.
  void Rebuild() {
    tree_.Reset(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].begin != slots_[i].end) {
        tree_.SetInitial(i, TreeKey(*slots_[i].begin));
      }
    }
    tree_.Build();
    stale_ = false;
  }

  // Releases a drained minirun's block and frees its slot, whose entry in
  // the tree is (or, once rebuilt, will be) exhausted.
  void Free(size_t slot) {
    arena_->Release(slots_[slot].block);
    slots_[slot] = Minirun{};
    free_.push_back(static_cast<uint32_t>(slot));
  }

  // Where the keys of `slot` in [from, limit) stop draining before the
  // runner-up head, while `slot` holds the tree's winning entry: a
  // gallop over positions 0, 1, 3, 7, ... then a binary search inside
  // the last step.
  static Key* SpanEnd(const LoserTree& tree, size_t slot, Key* from,
                      Key* limit) {
    size_t runner_slot;
    const Key runner = tree.RunnerUp(&runner_slot);
    const bool ties_win = slot < runner_slot;
    const auto wins = [runner, ties_win](Key key) {
      const Key k = TreeKey(key);
      return k < runner || (ties_win && k == runner);
    };
    const size_t n = static_cast<size_t>(limit - from);
    size_t bound = 1;
    while (bound <= n && wins(from[bound - 1])) bound *= 2;
    return std::partition_point(from + bound / 2,
                                from + std::min(bound - 1, n), wins);
  }

  MinirunArena* arena_;
  std::vector<Minirun> slots_;  // drained slots hold an empty Minirun
  std::vector<uint32_t> free_;  // the drained slots
  LoserTree tree_;
  bool stale_ = false;
  uint64_t records_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_MINIRUN_HEAP_H_
