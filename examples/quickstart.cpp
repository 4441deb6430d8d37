// Quickstart: sort a file of records that does not fit in memory.
//
//   ./quickstart [num_records]
//
// Generates a shuffled input file, sorts it with the full 2WRS external
// mergesort pipeline under a small memory budget, verifies the output, and
// prints phase statistics.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "io/posix_env.h"
#include "merge/external_sorter.h"
#include "util/checksum.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  const uint64_t num_records = argc > 1 ? strtoull(argv[1], nullptr, 10)
                                        : 1000000;
  twrs::PosixEnv env;
  const char* dir = "/tmp/twrs_quickstart";
  if (!env.CreateDirIfMissing(dir).ok()) return 1;

  // 1. Create an unsorted input file (1M random records by default).
  twrs::WorkloadOptions workload;
  workload.num_records = num_records;
  workload.seed = 42;
  const std::string input_path = std::string(dir) + "/input";
  twrs::Status status = twrs::WriteWorkloadToFile(
      &env, twrs::Dataset::kRandom, workload, input_path);
  if (!status.ok()) {
    fprintf(stderr, "generate input: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("input: %" PRIu64 " records (%.1f MiB) at %s\n", num_records,
         static_cast<double>(num_records * twrs::kRecordBytes) / (1 << 20),
         input_path.c_str());

  // 2. Configure the sorter: 64Ki records of memory (a 512 KiB budget),
  //    2WRS run generation with the paper's recommended configuration.
  twrs::ExternalSortOptions options;
  options.algorithm = twrs::RunGenAlgorithm::kTwoWayReplacementSelection;
  options.memory_records = 64 * 1024;
  options.fan_in = 10;
  options.temp_dir = std::string(dir) + "/tmp";
  twrs::ExternalSorter sorter(&env, options);

  // 3. Sort.
  twrs::FileRecordSource source(&env, input_path);
  const std::string output_path = std::string(dir) + "/sorted";
  twrs::ExternalSortResult result;
  status = sorter.Sort(&source, output_path, &result);
  if (!status.ok()) {
    fprintf(stderr, "sort: %s\n", status.ToString().c_str());
    return 1;
  }

  // 4. Verify: the output must be sorted and a permutation of the input.
  uint64_t count = 0;
  twrs::KeyChecksum checksum;
  status = twrs::VerifySortedFile(&env, output_path, &count, &checksum);
  if (!status.ok()) {
    fprintf(stderr, "verify: %s\n", status.ToString().c_str());
    return 1;
  }

  printf("sorted %" PRIu64 " records into %s\n", count, output_path.c_str());
  printf("  runs generated : %" PRIu64 " (avg length %.0f = %.2fx memory)\n",
         result.run_gen.num_runs(), result.run_gen.AverageRunLength(),
         result.run_gen.AverageRunLengthRelative(options.memory_records));
  printf("  run generation : %.3f s\n", result.run_gen_seconds);
  printf("  merge phase    : %.3f s (%" PRIu64 " merge steps)\n",
         result.merge_seconds, result.merge.merge_steps);
  printf("  total          : %.3f s\n", result.total_seconds);
  printf("output verified: sorted and a permutation of the input\n");
  return 0;
}
