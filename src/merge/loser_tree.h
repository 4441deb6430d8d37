#ifndef TWRS_MERGE_LOSER_TREE_H_
#define TWRS_MERGE_LOSER_TREE_H_

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
class LoserTree {
 public:
  /// Creates a tree over `k` ways; all ways start exhausted.
  explicit LoserTree(size_t k)
      : k_(k), leaves_(k), losers_(k), winner_(Retired(0)) {
    for (size_t w = 0; w < k; ++w) leaves_[w] = Retired(w);
  }

  /// Sets the initial key of way `w`. Call for each live way, then Build().
  void SetInitial(size_t w, Key key) {
    assert(w < k_ && RankOf(leaves_[w]) >= k_);
    leaves_[w] = Pack(key, w);
  }

  /// Runs the initial tournament.
  void Build() {
    if (k_ == 0) return;
    // Play bottom-up over a scratch array of match winners; leaves sit at
    // [k, 2k), internal node n plays the winners of 2n and 2n+1.
    std::vector<Entry> winner_of(2 * k_);
    for (size_t w = 0; w < k_; ++w) winner_of[k_ + w] = leaves_[w];
    for (size_t node = k_ - 1; node >= 1; --node) {
      const Entry a = winner_of[2 * node];
      const Entry b = winner_of[2 * node + 1];
      losers_[node] = a < b ? b : a;
      winner_of[node] = a < b ? a : b;
    }
    winner_ = winner_of[1];
  }

  /// Way holding the smallest key. Requires !Exhausted().
  size_t WinnerIndex() const {
    assert(!Exhausted());
    return RankOf(winner_);
  }

  /// Key of the winning way.
  Key WinnerKey() const {
    assert(!Exhausted());
    return static_cast<Key>(static_cast<uint64_t>(winner_ >> 64) ^ kSignBit);
  }

  /// Replaces the winner's key with its next key and replays its path.
  void ReplaceWinner(Key key) {
    const size_t way = WinnerIndex();
    Replay(Pack(key, way), way);
  }

  /// Marks the winning way as exhausted and replays its path.
  void RetireWinner() {
    const size_t way = WinnerIndex();
    Replay(Retired(way), way);
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

  Entry Retired(size_t way) const {
    return Pack(std::numeric_limits<Key>::max(), way + k_);
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

  size_t k_;
  std::vector<Entry> leaves_;  // initial entries, read once by Build()
  std::vector<Entry> losers_;  // internal nodes [1, k): cached losers
  Entry winner_;
};

}  // namespace twrs

#endif  // TWRS_MERGE_LOSER_TREE_H_
