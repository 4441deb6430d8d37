// Autonomic configuration advisor (the paper's §7.1 future-work idea).
//
// A query optimizer that knows — or samples — the distribution feeding a
// sort operator can pick the 2WRS configuration that minimizes runs. This
// example samples a prefix of the input, classifies its shape with simple
// trend statistics, applies the configuration rules of §5.3, and shows the
// resulting run counts against the untuned default.
//
//   ./tuning_advisor [dataset 0-5] [num_records]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/run_sink.h"
#include "core/two_way_replacement_selection.h"
#include "workload/generators.h"

namespace {

enum class Shape { kSorted, kReverseSorted, kTrendMix, kUnstructured };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kSorted:
      return "ascending trend";
    case Shape::kReverseSorted:
      return "descending trend";
    case Shape::kTrendMix:
      return "mixed/alternating trends";
    case Shape::kUnstructured:
      return "unstructured (random-like)";
  }
  return "?";
}

// Classifies a sample by the balance of rising vs falling steps and by how
// often the direction flips.
Shape ClassifySample(const std::vector<twrs::Key>& sample) {
  if (sample.size() < 3) return Shape::kUnstructured;
  uint64_t up = 0;
  uint64_t down = 0;
  for (size_t i = 1; i < sample.size(); ++i) {
    if (sample[i] > sample[i - 1]) {
      ++up;
    } else if (sample[i] < sample[i - 1]) {
      ++down;
    }
  }
  const double total = static_cast<double>(up + down);
  if (total == 0) return Shape::kUnstructured;
  const double up_share = up / total;
  if (up_share > 0.95) return Shape::kSorted;
  if (up_share < 0.05) return Shape::kReverseSorted;
  // Interleaved monotone trends flip direction nearly every step; random
  // data flips about half the time but its steps have no long-range
  // structure. Separate them by the autocorrelation of step directions at
  // lag 2: interleaved trends repeat direction at lag 2 far more often.
  uint64_t lag2_same = 0;
  uint64_t lag2_total = 0;
  for (size_t i = 3; i < sample.size(); ++i) {
    const bool dir_now = sample[i] > sample[i - 1];
    const bool dir_lag2 = sample[i - 2] > sample[i - 3];
    lag2_same += dir_now == dir_lag2 ? 1 : 0;
    ++lag2_total;
  }
  const double lag2_share = static_cast<double>(lag2_same) / lag2_total;
  return lag2_share > 0.8 ? Shape::kTrendMix : Shape::kUnstructured;
}

// §5.3's recommendations, specialized by the detected shape.
twrs::TwoWayOptions Advise(Shape shape, size_t memory) {
  twrs::TwoWayOptions options = twrs::TwoWayOptions::Recommended(memory);
  switch (shape) {
    case Shape::kSorted:
    case Shape::kReverseSorted:
      // Configuration-insensitive (§5.2.1/§5.2.2): spend no memory on
      // buffers beyond the minimum.
      options.buffer_fraction = 0.0002;
      break;
    case Shape::kTrendMix:
      // §5.2.5/§5.2.6 optima: both buffers, generous size, Mean input.
      options.buffer_fraction = 0.2;
      options.input_heuristic = twrs::InputHeuristic::kMean;
      options.output_heuristic = twrs::OutputHeuristic::kRandom;
      break;
    case Shape::kUnstructured:
      // §5.2.4: buffers only cost run length on random data.
      options.buffer_fraction = 0.0002;
      break;
  }
  return options;
}

uint64_t CountRuns(const twrs::TwoWayOptions& options, twrs::Dataset dataset,
                   const twrs::WorkloadOptions& workload) {
  auto source = twrs::MakeWorkload(dataset, workload);
  twrs::TwoWayReplacementSelection generator(options);
  twrs::CountingRunSink sink;
  twrs::RunGenStats stats;
  if (!generator.Generate(source.get(), &sink, &stats).ok()) return 0;
  return stats.num_runs();
}

}  // namespace

int main(int argc, char** argv) {
  const int dataset_index = argc > 1 ? atoi(argv[1]) : 4;  // default: mixed
  const uint64_t num_records =
      argc > 2 ? strtoull(argv[2], nullptr, 10) : 400000;
  if (dataset_index < 0 || dataset_index >= twrs::kNumDatasets) {
    fprintf(stderr, "dataset must be 0..%d\n", twrs::kNumDatasets - 1);
    return 1;
  }
  const auto dataset = static_cast<twrs::Dataset>(dataset_index);
  const size_t memory = 8192;

  twrs::WorkloadOptions workload;
  workload.num_records = num_records;
  workload.seed = 17;

  // Sample a prefix, as an optimizer with intermediate-result statistics
  // would (§7.1).
  const size_t sample_size = 4096;
  std::vector<twrs::Key> sample(sample_size);
  {
    auto source = twrs::MakeWorkload(dataset, workload);
    size_t n = 0;
    if (!source->Read(sample.data(), sample.size(), &n).ok()) return 1;
    sample.resize(n);
  }
  const Shape shape = ClassifySample(sample);
  printf("input          : %s (%" PRIu64 " records)\n",
         twrs::DatasetName(dataset), num_records);
  printf("detected shape : %s (from a %zu-record sample)\n", ShapeName(shape),
         sample.size());

  const twrs::TwoWayOptions advised = Advise(shape, memory);
  printf("advised config : buffers %.2f%%, %s/%s\n",
         100.0 * advised.buffer_fraction,
         twrs::InputHeuristicName(advised.input_heuristic),
         twrs::OutputHeuristicName(advised.output_heuristic));

  const uint64_t default_runs =
      CountRuns(twrs::TwoWayOptions::Recommended(memory), dataset, workload);
  const uint64_t advised_runs = CountRuns(advised, dataset, workload);
  printf("\n%-24s %10s %14s\n", "", "runs", "avg run/memory");
  printf("%-24s %10" PRIu64 " %14.2f\n", "default (2% Mean/Random)",
         default_runs,
         default_runs ? static_cast<double>(num_records) /
                            (static_cast<double>(default_runs) * memory)
                      : 0.0);
  printf("%-24s %10" PRIu64 " %14.2f\n", "advised", advised_runs,
         advised_runs ? static_cast<double>(num_records) /
                            (static_cast<double>(advised_runs) * memory)
                      : 0.0);
  return 0;
}
