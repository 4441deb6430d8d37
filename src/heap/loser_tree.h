#ifndef TWRS_HEAP_LOSER_TREE_H_
#define TWRS_HEAP_LOSER_TREE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/record.h"

namespace twrs {

/// Tournament (loser) tree over k input ways, the classic k-way merge
/// selector (§2.1.2 implemented with log k comparisons per record instead of
/// the naive k-1). Internal nodes cache the {key, rank} of the loser of each
/// match, so a replay compares cached keys without touching per-way state.
/// A live way ranks by its index; an exhausted way becomes
/// {INT64_MAX, way + k}, which sorts after every live entry — a live
/// INT64_MAX key included — so ties break by way index and exhausted ways
/// never win while any way is live.
///
/// The k-way merge and MinirunHeap (the batched generators' selector over
/// minirun heads) both run on it.
class LoserTree {
 public:
  /// Creates a tree over `k` ways; all ways start exhausted.
  explicit LoserTree(size_t k) { Reset(k); }

  /// Makes this a tree over `k` ways, all exhausted, keeping its storage.
  void Reset(size_t k) {
    k_ = k;
    winner_of_.resize(2 * k);
    losers_.resize(k);
    for (size_t w = 0; w < k; ++w) winner_of_[k + w] = Retired(w);
    winner_ = Retired(0);
  }

  /// Sets the initial key of way `w`. Call for each live way, then Build().
  void SetInitial(size_t w, Key key) {
    assert(w < k_ && RankOf(winner_of_[k_ + w]) >= k_);
    winner_of_[k_ + w] = Pack(key, w);
  }

  /// Runs the initial tournament.
  void Build() {
    if (k_ == 0) return;
    // Play bottom-up over the array of match winners; leaves sit at
    // [k, 2k), internal node n plays the winners of 2n and 2n+1.
    for (size_t node = k_ - 1; node >= 1; --node) {
      const Entry a = winner_of_[2 * node];
      const Entry b = winner_of_[2 * node + 1];
      losers_[node] = a < b ? b : a;
      winner_of_[node] = a < b ? a : b;
    }
    winner_ = winner_of_[1];
  }

  /// Way holding the smallest key. Requires !Exhausted().
  size_t WinnerIndex() const {
    assert(!Exhausted());
    return RankOf(winner_);
  }

  /// Key of the winning way.
  Key WinnerKey() const {
    assert(!Exhausted());
    return KeyOf(winner_);
  }

  /// Replaces the winner's key with its next key and replays its path.
  void ReplaceWinner(Key key) {
    const size_t way = WinnerIndex();
    Replay(Pack(key, way), way);
  }

  /// Gives way `w`, winning or not, live or exhausted, the live entry
  /// `key` and replays its path. A replay from the leaf is only right for
  /// the winner, whose entry is cached nowhere on its path; for any other
  /// way the path is first unwound from the root down to recover, at each
  /// node, the winner of the subtree the way's entry meets there.
  void Update(size_t w, Key key) {
    assert(w < k_);
    size_t path[64];  // the leaf's ancestors, bottom-up
    size_t depth = 0;
    for (size_t node = (k_ + w) / 2; node >= 1; node /= 2) path[depth++] = node;
    // Top-down: `win` is the old winner of the node at hand. Of its match,
    // the entry that did not come up from the path child came from the
    // other child's subtree, which the update leaves as it is.
    Entry opponent[64];
    Entry win = winner_;
    for (size_t i = depth; i-- > 0;) {
      const size_t path_child = i > 0 ? path[i - 1] : k_ + w;
      const Entry loser = losers_[path[i]];
      if (InSubtree(win, path_child)) {
        opponent[i] = loser;
      } else {
        opponent[i] = win;
        win = loser;
      }
    }
    Entry current = Pack(key, w);
    for (size_t i = 0; i < depth; ++i) {
      const bool swap = opponent[i] < current;
      losers_[path[i]] = swap ? current : opponent[i];
      current = swap ? opponent[i] : current;
    }
    winner_ = current;
  }

  /// Marks the winning way as exhausted and replays its path.
  void RetireWinner() {
    const size_t way = WinnerIndex();
    Replay(Retired(way), way);
  }

  /// The entry that would win if the winner's way were retired: the least
  /// of the losers cached on the winner's path, since each of them won its
  /// own subtree. Sets `*way` to its way (ways() or more when every other
  /// way is exhausted) and returns its key. Requires !Exhausted().
  Key RunnerUp(size_t* way) const {
    Entry best = Retired(k_);
    for (size_t node = (k_ + WinnerIndex()) / 2; node >= 1; node /= 2) {
      best = losers_[node] < best ? losers_[node] : best;
    }
    *way = RankOf(best);
    return KeyOf(best);
  }

  /// True when every way is exhausted.
  bool Exhausted() const { return RankOf(winner_) >= k_; }

  size_t ways() const { return k_; }

 private:
  // One {key, rank} entry as a single unsigned 128-bit integer: the key
  // with its sign bit flipped (so unsigned order is signed key order) in
  // the high half, the rank in the low half. Integer order is then the
  // strict (key, rank) order that keeps the merge stable by way index,
  // and a replay compares and selects without a data-dependent branch,
  // where a two-field compare branched on keys that, in a merge of
  // random runs, go either way about half the time.
  __extension__ typedef unsigned __int128 Entry;

  static constexpr uint64_t kSignBit = uint64_t{1} << 63;

  static Entry Pack(Key key, size_t rank) {
    return static_cast<Entry>(static_cast<uint64_t>(key) ^ kSignBit) << 64 |
           static_cast<Entry>(rank);
  }

  static size_t RankOf(Entry entry) {
    return static_cast<size_t>(static_cast<uint64_t>(entry));
  }

  static Key KeyOf(Entry entry) {
    return static_cast<Key>(static_cast<uint64_t>(entry >> 64) ^ kSignBit);
  }

  Entry Retired(size_t way) const {
    return Pack(std::numeric_limits<Key>::max(), way + k_);
  }

  // True when the way of `entry` is a leaf under `node` (or is `node`).
  bool InSubtree(Entry entry, size_t node) const {
    const size_t rank = RankOf(entry);
    const uint64_t leaf = k_ + (rank < k_ ? rank : rank - k_);
    const int shift = __builtin_clzll(node) - __builtin_clzll(leaf);
    return shift >= 0 && (leaf >> shift) == node;
  }

  // Walks from the leaf of `way` to the root carrying its new entry,
  // swapping with every cached loser that beats it; what reaches the root
  // is the new winner.
  void Replay(Entry current, size_t way) {
    for (size_t node = (k_ + way) / 2; node >= 1; node /= 2) {
      const Entry loser = losers_[node];
      const bool swap = loser < current;
      losers_[node] = swap ? current : loser;
      current = swap ? loser : current;
    }
    winner_ = current;
  }

  size_t k_ = 0;
  std::vector<Entry> winner_of_;  // Build()'s match winners; leaves at [k, 2k)
  std::vector<Entry> losers_;     // internal nodes [1, k): cached losers
  Entry winner_;
};

}  // namespace twrs

#endif  // TWRS_HEAP_LOSER_TREE_H_
