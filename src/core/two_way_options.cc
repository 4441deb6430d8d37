#include "core/two_way_options.h"

#include <algorithm>
#include <cmath>

namespace twrs {

size_t TwoWayOptions::TotalBufferRecords() const {
  if (!use_input_buffer && !use_victim_buffer) return 0;
  size_t total = static_cast<size_t>(
      std::llround(buffer_fraction * static_cast<double>(memory_records)));
  const size_t min_needed =
      (use_input_buffer ? 1 : 0) + (use_victim_buffer ? 1 : 0);
  total = std::max(total, min_needed);
  // The heaps need at least two records.
  if (total + 2 > memory_records) {
    total = memory_records > 2 ? memory_records - 2 : 0;
  }
  return total;
}

size_t TwoWayOptions::InputBufferRecords() const {
  if (!use_input_buffer) return 0;
  const size_t total = TotalBufferRecords();
  return use_victim_buffer ? total / 2 : total;
}

size_t TwoWayOptions::VictimBufferRecords() const {
  if (!use_victim_buffer) return 0;
  return TotalBufferRecords() - InputBufferRecords();
}

size_t TwoWayOptions::HeapRecords() const {
  return memory_records - TotalBufferRecords();
}

Status TwoWayOptions::Validate() const {
  if (memory_records < kMinMemoryRecords) {
    return Status::InvalidArgument("memory_records must be at least 3");
  }
  if (buffer_fraction < 0.0 || buffer_fraction >= 1.0) {
    return Status::InvalidArgument("buffer_fraction must be in [0, 1)");
  }
  if (HeapRecords() < 2) {
    return Status::InvalidArgument("configuration leaves no room for heaps");
  }
  return Status::OK();
}

TwoWayOptions TwoWayOptions::Recommended(size_t memory_records,
                                         uint64_t seed) {
  TwoWayOptions options;
  options.memory_records = memory_records;
  options.buffer_fraction = 0.02;
  options.use_input_buffer = true;
  options.use_victim_buffer = true;
  options.input_heuristic = InputHeuristic::kMean;
  options.output_heuristic = OutputHeuristic::kRandom;
  options.seed = seed;
  return options;
}

}  // namespace twrs
