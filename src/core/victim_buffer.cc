#include "core/victim_buffer.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/block_sort.h"

namespace twrs {

VictimBuffer::VictimBuffer(size_t capacity) : capacity_(capacity) {}

void VictimBuffer::Add(Key key) {
  assert(!Full());
  values_.push_back(key);
}

void VictimBuffer::AddSpan(const Key* keys, size_t n) {
  values_.insert(values_.end(), keys, keys + n);
}

namespace {

// Width of the gap between sorted neighbours lo <= hi. Two keys can be up
// to 2^64 - 1 apart, which overflows Key but not its unsigned twin.
uint64_t GapWidth(Key lo, Key hi) {
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
}

}  // namespace

size_t VictimBuffer::LargestGapIndex() {
  SortKeysBlock(values_.data(), values_.size());
  size_t best = 0;
  uint64_t best_gap = GapWidth(values_[0], values_[1]);
  for (size_t i = 1; i + 1 < values_.size(); ++i) {
    const uint64_t gap = GapWidth(values_[i], values_[i + 1]);
    if (gap > best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return best;
}

Status VictimBuffer::BootstrapSplit(std::vector<Key>* lows,
                                    std::vector<Key>* highs,
                                    const RangePopulation& population) {
  assert(bootstrapping());
  lows->clear();
  highs->clear();
  if (values_.empty()) return Status::OK();
  ++flush_count_;
  if (values_.size() == 1) {
    // Degenerate one-record buffer: no gap to choose.
    const Key v = values_.front();
    range_set_ = true;
    range_lo_ = range_hi_ = v;
    lows->push_back(v);
    values_.clear();
    return Status::OK();
  }
  size_t gap = 0;
  bool have_admissible = true;
  if (population == nullptr) {
    gap = LargestGapIndex();
  } else {
    SortKeysBlock(values_.data(), values_.size());
    // Widest gap whose interior can be absorbed by this buffer. A wider
    // gap makes the buffer more useful (§4.3), but a gap holding more
    // records than the buffer's capacity would thrash: repeated flushes
    // would narrow the range while everything left outside is lost to the
    // next run.
    have_admissible = false;
    uint64_t best_width = 0;
    for (size_t i = 0; i + 1 < values_.size(); ++i) {
      const uint64_t width = GapWidth(values_[i], values_[i + 1]);
      if (population(values_[i], values_[i + 1]) > capacity_) continue;
      if (!have_admissible || width > best_width) {
        gap = i;
        best_width = width;
        have_admissible = true;
      }
    }
  }
  if (!have_admissible) {
    // Every gap is overfull: the heaps' key ranges overlap completely (the
    // bootstrap sampled both extremes). Fall back to a point division at
    // the sample value that splits the in-memory records most evenly; the
    // victim buffer sits this run out, and the separation sweep relocates
    // everything across the point.
    constexpr Key kMin = std::numeric_limits<Key>::min();
    constexpr Key kMax = std::numeric_limits<Key>::max();
    const uint64_t total = population(kMin, kMax);
    size_t best_value = 0;
    uint64_t best_imbalance = UINT64_MAX;
    for (size_t i = 0; i < values_.size(); ++i) {
      const uint64_t below = population(kMin, values_[i]);
      const uint64_t above = total >= below ? total - below : 0;
      const uint64_t imbalance = below > above ? below - above : above - below;
      if (imbalance < best_imbalance) {
        best_imbalance = imbalance;
        best_value = i;
      }
    }
    lows->assign(values_.begin(), values_.begin() + best_value + 1);
    highs->assign(values_.begin() + best_value + 1, values_.end());
    range_set_ = true;
    range_lo_ = range_hi_ = values_[best_value];
    values_.clear();
    return Status::OK();
  }
  lows->assign(values_.begin(), values_.begin() + gap + 1);
  highs->assign(values_.begin() + gap + 1, values_.end());
  range_set_ = true;
  range_lo_ = values_[gap];
  range_hi_ = values_[gap + 1];
  values_.clear();
  return Status::OK();
}

Status VictimBuffer::FlushActive(RunSink* sink) {
  assert(range_set_);
  if (values_.empty()) return Status::OK();
  ++flush_count_;
  if (values_.size() == 1) {
    const Key v = values_.front();
    TWRS_RETURN_IF_ERROR(sink->Append(kStream3, v));
    range_lo_ = v;
    values_.clear();
    return Status::OK();
  }
  const size_t gap = LargestGapIndex();
  // The flushed ranges nest: the new valid range is inside the old one.
  range_lo_ = values_[gap];
  range_hi_ = values_[gap + 1];
  TWRS_RETURN_IF_ERROR(sink->AppendSorted(kStream3, values_.data(), gap + 1));
  // Stream 2 takes the upper part largest first.
  std::reverse(values_.begin() + gap + 1, values_.end());
  TWRS_RETURN_IF_ERROR(sink->AppendSorted(kStream2, values_.data() + gap + 1,
                                          values_.size() - gap - 1));
  values_.clear();
  return Status::OK();
}

Status VictimBuffer::FlushFinal(RunSink* sink) {
  if (values_.empty()) return Status::OK();
  SortKeysBlock(values_.data(), values_.size());
  TWRS_RETURN_IF_ERROR(
      sink->AppendSorted(kStream3, values_.data(), values_.size()));
  values_.clear();
  return Status::OK();
}

void VictimBuffer::ResetForNewRun() {
  values_.clear();
  range_set_ = false;
  range_lo_ = 0;
  range_hi_ = 0;
}

}  // namespace twrs
