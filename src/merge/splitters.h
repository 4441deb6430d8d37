#ifndef TWRS_MERGE_SPLITTERS_H_
#define TWRS_MERGE_SPLITTERS_H_

#include <cstdint>
#include <vector>

#include "core/record.h"
#include "util/random.h"

namespace twrs {

/// Uniform reservoir sampler (Algorithm R) over a key stream: after any
/// number of Add calls, sample() holds min(capacity, seen) keys, each seen
/// key equally likely to be present. Deterministic for a fixed seed. The
/// partitioned final merge picks its key-domain splitters from one.
class ReservoirSampler {
 public:
  ReservoirSampler(size_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void Add(Key key);

  /// Keys offered so far.
  uint64_t seen() const { return seen_; }

  /// The current reservoir (unsorted).
  const std::vector<Key>& sample() const { return sample_; }

 private:
  size_t capacity_;
  Random rng_;
  uint64_t seen_ = 0;
  std::vector<Key> sample_;
};

/// Picks at most `parts` - 1 ascending, distinct range splitters at the
/// quantiles of `sample` — the distribution-sort partitioning idea (§2.2)
/// with sampled instead of assumed-known key ranges. Part i then covers
/// [splitter[i-1], splitter[i]) with the outer parts open-ended, so
/// duplicates of any key always land in one part. Heavily skewed samples
/// collapse duplicate splitters, yielding fewer effective parts.
std::vector<Key> PickSplitters(std::vector<Key> sample, size_t parts);

}  // namespace twrs

#endif  // TWRS_MERGE_SPLITTERS_H_
