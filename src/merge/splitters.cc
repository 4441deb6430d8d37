#include "merge/splitters.h"

#include <algorithm>

#include "core/block_sort.h"

namespace twrs {

void ReservoirSampler::Add(Key key) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(key);
    return;
  }
  const uint64_t slot = rng_.Uniform(seen_);
  if (slot < capacity_) sample_[slot] = key;
}

std::vector<Key> PickSplitters(std::vector<Key> sample, size_t parts) {
  std::vector<Key> splitters;
  if (parts <= 1 || sample.empty()) return splitters;
  SortKeysBlock(sample.data(), sample.size());
  for (size_t i = 1; i < parts; ++i) {
    const size_t idx =
        std::min(i * sample.size() / parts, sample.size() - 1);
    splitters.push_back(sample[idx]);
  }
  splitters.erase(std::unique(splitters.begin(), splitters.end()),
                  splitters.end());
  return splitters;
}

}  // namespace twrs
