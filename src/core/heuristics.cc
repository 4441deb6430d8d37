#include "core/heuristics.h"

#include <cstdint>

namespace twrs {

namespace {

// |a - b| without the signed overflow of subtracting keys more than 2^63
// apart.
uint64_t Distance(Key a, Key b) {
  return a > b ? static_cast<uint64_t>(a) - static_cast<uint64_t>(b)
               : static_cast<uint64_t>(b) - static_cast<uint64_t>(a);
}

}  // namespace

const char* InputHeuristicName(InputHeuristic h) {
  switch (h) {
    case InputHeuristic::kRandom:
      return "Random";
    case InputHeuristic::kAlternate:
      return "Alternate";
    case InputHeuristic::kMean:
      return "Mean";
    case InputHeuristic::kMedian:
      return "Median";
    case InputHeuristic::kUseful:
      return "Useful";
    case InputHeuristic::kBalancing:
      return "Balancing";
  }
  return "?";
}

const char* OutputHeuristicName(OutputHeuristic h) {
  switch (h) {
    case OutputHeuristic::kRandom:
      return "Random";
    case OutputHeuristic::kAlternate:
      return "Alternate";
    case OutputHeuristic::kUseful:
      return "Useful";
    case OutputHeuristic::kBalancing:
      return "Balancing";
    case OutputHeuristic::kMinDistance:
      return "MinDistance";
  }
  return "?";
}

HeuristicEngine::HeuristicEngine(InputHeuristic input, OutputHeuristic output,
                                 uint64_t seed)
    : input_(input), output_(output), rng_(seed) {}

void HeuristicEngine::OnRecordSeen(Key key) {
  running_sum_ += static_cast<double>(key);
  ++running_count_;
}

double HeuristicEngine::Usefulness(HeapSide side,
                                   const DoubleHeap& heap) const {
  const uint64_t outputs =
      side == HeapSide::kBottom ? outputs_bottom_ : outputs_top_;
  const size_t size = heap.SideSize(side);
  return static_cast<double>(outputs) /
         static_cast<double>(size == 0 ? 1 : size);
}

HeapSide HeuristicEngine::ChooseInsertSide(Key key, const InputBuffer* buffer,
                                           const DoubleHeap& heap) {
  switch (input_) {
    case InputHeuristic::kRandom:
      return RandomSide();
    case InputHeuristic::kAlternate: {
      const HeapSide side =
          insert_next_top_ ? HeapSide::kTop : HeapSide::kBottom;
      insert_next_top_ = !insert_next_top_;
      return side;
    }
    case InputHeuristic::kMean: {
      // Mean over every record seen so far plus the buffered lookahead.
      // The thesis computes the mean over the input-buffer window alone;
      // at its scale (window of 10^3+ records) the two estimators agree,
      // but for small windows the window-only mean wobbles enough to place
      // records near the division into either heap, which poisons the next
      // run's output bounds (see DESIGN.md §2.1). The pooled estimator is
      // stable and reproduces every decision in the worked example of §4.5.
      double sum = running_sum_;
      double count = static_cast<double>(running_count_);
      if (buffer != nullptr) {
        sum += buffer->WindowSum();
        count += static_cast<double>(buffer->WindowSize());
      }
      if (count == 0.0) return RandomSide();
      const double mean = sum / count;
      // "If the mean is smaller, the record is stored in the TopHeap" §4.2.
      return static_cast<double>(key) > mean ? HeapSide::kTop
                                             : HeapSide::kBottom;
    }
    case InputHeuristic::kMedian: {
      if (buffer != nullptr && buffer->HasStats()) {
        return key > buffer->Median() ? HeapSide::kTop : HeapSide::kBottom;
      }
      // Without an input buffer the median is unavailable; fall back to the
      // running mean (documented deviation — the paper always pairs Median
      // with the input buffer).
      if (running_count_ > 0) {
        return static_cast<double>(key) >
                       running_sum_ / static_cast<double>(running_count_)
                   ? HeapSide::kTop
                   : HeapSide::kBottom;
      }
      return RandomSide();
    }
    case InputHeuristic::kUseful: {
      const double b = Usefulness(HeapSide::kBottom, heap);
      const double t = Usefulness(HeapSide::kTop, heap);
      if (b == t) return RandomSide();
      return b > t ? HeapSide::kBottom : HeapSide::kTop;
    }
    case InputHeuristic::kBalancing:
      if (heap.SideSize(HeapSide::kBottom) == heap.SideSize(HeapSide::kTop)) {
        return RandomSide();
      }
      return heap.SideSize(HeapSide::kBottom) < heap.SideSize(HeapSide::kTop)
                 ? HeapSide::kBottom
                 : HeapSide::kTop;
  }
  return HeapSide::kTop;
}

HeapSide HeuristicEngine::ChooseOutputSide(const DoubleHeap& heap) {
  switch (output_) {
    case OutputHeuristic::kRandom:
      return RandomSide();
    case OutputHeuristic::kAlternate: {
      // "First, a record is popped from the BottomHeap" §4.2.
      const HeapSide side =
          output_next_top_ ? HeapSide::kTop : HeapSide::kBottom;
      output_next_top_ = !output_next_top_;
      return side;
    }
    case OutputHeuristic::kUseful: {
      const double b = Usefulness(HeapSide::kBottom, heap);
      const double t = Usefulness(HeapSide::kTop, heap);
      if (b == t) return RandomSide();
      return b > t ? HeapSide::kBottom : HeapSide::kTop;
    }
    case OutputHeuristic::kBalancing:
      // Keep the heaps level by draining the larger one.
      if (heap.SideSize(HeapSide::kBottom) == heap.SideSize(HeapSide::kTop)) {
        return RandomSide();
      }
      return heap.SideSize(HeapSide::kBottom) > heap.SideSize(HeapSide::kTop)
                 ? HeapSide::kBottom
                 : HeapSide::kTop;
    case OutputHeuristic::kMinDistance: {
      if (!has_first_output_) return RandomSide();
      const double db = static_cast<double>(
          Distance(heap.Top(HeapSide::kBottom).key, first_output_));
      const double dt = static_cast<double>(
          Distance(heap.Top(HeapSide::kTop).key, first_output_));
      if (db == dt) return RandomSide();
      return db < dt ? HeapSide::kBottom : HeapSide::kTop;
    }
  }
  return HeapSide::kTop;
}

void HeuristicEngine::OnOutput(HeapSide side, Key key) {
  if (side == HeapSide::kBottom) {
    ++outputs_bottom_;
  } else {
    ++outputs_top_;
  }
  if (!has_first_output_) {
    has_first_output_ = true;
    first_output_ = key;
  }
}

void HeuristicEngine::OnRunStart(DoubleHeap* heap) {
  outputs_bottom_ = 0;
  outputs_top_ = 0;
  has_first_output_ = false;
  output_next_top_ = false;
  if (input_ == InputHeuristic::kBalancing && heap != nullptr) {
    // §4.2: when a run starts, level the heaps by moving records from the
    // larger to the smaller one. Leaves move in O(1) each.
    for (;;) {
      const size_t b = heap->SideSize(HeapSide::kBottom);
      const size_t t = heap->SideSize(HeapSide::kTop);
      if (b + 1 >= t && t + 1 >= b) break;
      const HeapSide from = b > t ? HeapSide::kBottom : HeapSide::kTop;
      const HeapSide to = b > t ? HeapSide::kTop : HeapSide::kBottom;
      heap->Push(to, heap->PopLastLeaf(from));
    }
  }
}

}  // namespace twrs
