// The two external-sorting paradigms of Chapter 2, side by side: external
// mergesort (2WRS run generation + k-way merging) versus distribution
// (bucket) sort. Distribution sort needs no merge phase but suffers when
// the data clusters; mergesort is insensitive to clustering.
//
//   ./distribution_vs_merge [num_records]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "distribution/distribution_sort.h"
#include "io/posix_env.h"
#include "merge/external_sorter.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload/generators.h"

namespace {

// 90% of the keys live in 0.1% of the key range: the clustering hazard of
// §2.2 that uniform bucket ranges handle poorly.
class ClusteredSource : public twrs::RecordSource {
 public:
  ClusteredSource(uint64_t records, uint64_t seed)
      : records_(records), rng_(seed) {}

 protected:
  twrs::Status ReadSome(twrs::Key* out, size_t cap, size_t* n) override {
    *n = std::min<uint64_t>(cap, records_ - i_);
    i_ += *n;
    for (size_t i = 0; i < *n; ++i) {
      if (rng_.Uniform(10) < 9) {  // the hot cluster
        out[i] = static_cast<twrs::Key>(rng_.Uniform(1000));
      } else {
        out[i] = static_cast<twrs::Key>(rng_.Uniform(1000000000));
      }
    }
    return twrs::Status::OK();
  }

 private:
  uint64_t records_;
  uint64_t i_ = 0;
  twrs::Random rng_;
};

std::unique_ptr<twrs::RecordSource> MakeSource(bool clustered, uint64_t n) {
  if (clustered) return std::make_unique<ClusteredSource>(n, 3);
  twrs::WorkloadOptions workload;
  workload.num_records = n;
  workload.seed = 3;
  return twrs::MakeWorkload(twrs::Dataset::kRandom, workload);
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t records = argc > 1 ? strtoull(argv[1], nullptr, 10) : 1000000;
  twrs::PosixEnv env;
  const char* dir = "/tmp/twrs_paradigms";
  if (!env.CreateDirIfMissing(dir).ok()) return 1;
  const size_t memory = 32 * 1024;

  printf("external mergesort vs distribution sort, %" PRIu64
         " records, %zu-record memory\n\n",
         records, memory);
  printf("%-22s %14s %14s %10s\n", "workload", "mergesort s",
         "distribution s", "verified");

  for (const bool clustered : {false, true}) {
    // Mergesort paradigm.
    double merge_seconds = 0.0;
    {
      auto source = MakeSource(clustered, records);
      twrs::ExternalSortOptions options;
      options.memory_records = memory;
      options.temp_dir = std::string(dir) + "/merge_tmp";
      twrs::ExternalSorter sorter(&env, options);
      twrs::Stopwatch watch;
      twrs::ExternalSortResult result;
      if (!sorter.Sort(source.get(), std::string(dir) + "/merge_out", &result)
               .ok()) {
        return 1;
      }
      merge_seconds = watch.ElapsedSeconds();
    }

    // Distribution paradigm.
    double dist_seconds = 0.0;
    twrs::DistributionSortStats dist_stats;
    {
      auto source = MakeSource(clustered, records);
      twrs::DistributionSortOptions options;
      options.memory_records = memory;
      options.num_buckets = 16;
      options.temp_dir = std::string(dir) + "/dist_tmp";
      twrs::Stopwatch watch;
      if (!twrs::DistributionSort(&env, source.get(), options,
                                  std::string(dir) + "/dist_out", &dist_stats)
               .ok()) {
        return 1;
      }
      dist_seconds = watch.ElapsedSeconds();
    }

    // Both outputs must be identical sorted files.
    uint64_t merge_count = 0;
    uint64_t dist_count = 0;
    twrs::KeyChecksum merge_sum;
    twrs::KeyChecksum dist_sum;
    if (!twrs::VerifySortedFile(&env, std::string(dir) + "/merge_out",
                                &merge_count, &merge_sum)
             .ok() ||
        !twrs::VerifySortedFile(&env, std::string(dir) + "/dist_out",
                                &dist_count, &dist_sum)
             .ok()) {
      return 1;
    }
    const bool same =
        merge_count == dist_count && merge_sum == dist_sum;
    printf("%-22s %14.3f %14.3f %10s\n",
           clustered ? "clustered (90% hot)" : "uniform random",
           merge_seconds, dist_seconds, same ? "yes" : "MISMATCH");
    if (clustered) {
      printf(
          "  (distribution sort needed %" PRIu64
          " distribution passes, depth %" PRIu64
          ", %" PRIu64 " mergesort fallbacks on the hot cluster)\n",
          dist_stats.distribution_passes, dist_stats.max_depth_reached,
          dist_stats.fallback_sorts);
    }
  }
  return 0;
}
