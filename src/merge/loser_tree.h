#ifndef TWRS_MERGE_LOSER_TREE_H_
#define TWRS_MERGE_LOSER_TREE_H_

#include <cassert>
#include <cstddef>
#include <limits>
#include <utility>
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
    assert(w < k_ && leaves_[w].rank >= k_);
    leaves_[w] = Entry{key, w};
  }

  /// Runs the initial tournament.
  void Build() {
    if (k_ == 0) return;
    // Play bottom-up over a scratch array of match winners; leaves sit at
    // [k, 2k), internal node n plays the winners of 2n and 2n+1.
    std::vector<Entry> winner_of(2 * k_);
    for (size_t w = 0; w < k_; ++w) winner_of[k_ + w] = leaves_[w];
    for (size_t node = k_ - 1; node >= 1; --node) {
      const Entry& a = winner_of[2 * node];
      const Entry& b = winner_of[2 * node + 1];
      const bool a_wins = Beats(a, b);
      losers_[node] = a_wins ? b : a;
      winner_of[node] = a_wins ? a : b;
    }
    winner_ = winner_of[1];
  }

  /// Way holding the smallest key. Requires !Exhausted().
  size_t WinnerIndex() const {
    assert(!Exhausted());
    return winner_.rank;
  }

  /// Key of the winning way.
  Key WinnerKey() const {
    assert(!Exhausted());
    return winner_.key;
  }

  /// Replaces the winner's key with its next key and replays its path.
  void ReplaceWinner(Key key) {
    assert(!Exhausted());
    Replay(Entry{key, winner_.rank}, winner_.rank);
  }

  /// Marks the winning way as exhausted and replays its path.
  void RetireWinner() {
    assert(!Exhausted());
    Replay(Retired(winner_.rank), winner_.rank);
  }

  /// True when every way is exhausted.
  bool Exhausted() const { return winner_.rank >= k_; }

  size_t ways() const { return k_; }

 private:
  struct Entry {
    Key key;
    size_t rank;  // way index while live, way + k once exhausted
  };

  Entry Retired(size_t way) const {
    return Entry{std::numeric_limits<Key>::max(), way + k_};
  }

  // Strict (key, rank) order: the merge is stable by way index.
  static bool Beats(const Entry& a, const Entry& b) {
    return a.key < b.key || (a.key == b.key && a.rank < b.rank);
  }

  // Walks from the leaf of `way` to the root carrying its new entry,
  // swapping with every cached loser that beats it; what reaches the root
  // is the new winner.
  void Replay(Entry current, size_t way) {
    for (size_t node = (k_ + way) / 2; node >= 1; node /= 2) {
      if (Beats(losers_[node], current)) std::swap(losers_[node], current);
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
