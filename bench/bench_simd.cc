/// Microbenchmark of the in-memory block sort (core/block_sort.h).
///
/// SortKeysBlock is timed against std::sort at the engine's two block
/// sizes. Every output is cross-checked against std::sort before any
/// number is reported (a mismatch aborts), and the results flow into the
/// standard --json report (schema_version 2, diffable with
/// tools/bench_diff.py).
///
///   bench_simd [--json BENCH_simd.json] [--profile NAME]

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "bench/bench_common.h"
#include "core/block_sort.h"
#include "util/table_printer.h"

namespace twrs {
namespace bench {
namespace {

constexpr uint64_t kSeed = 20100802;  // the paper's VLDB year + figure

std::vector<Key> RandomKeys(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = static_cast<Key>(rng());
  return keys;
}

/// Keys sorted per sample: split into distinct blocks so the branch
/// predictor cannot learn one block's comparisons across repetitions.
constexpr size_t kSortPoolKeys = 1 << 20;

/// The paper's uniform-random family (keys below records × stride).
std::vector<Key> PaperRandomKeys(size_t n, uint64_t seed) {
  WorkloadOptions options;
  options.num_records = n;
  options.seed = seed;
  std::unique_ptr<RecordSource> source =
      MakeWorkload(Dataset::kRandom, options);
  std::vector<Key> keys(n);
  size_t got = 0;
  CheckOk(source->Read(keys.data(), n, &got), "generate keys");
  keys.resize(got);
  return keys;
}

/// Median-of-5 seconds to sort `pool` block by block with `sort`; the
/// refill of the work copy before each sample is not timed.
template <typename SortFn>
double TimeBlockSorts(const std::vector<Key>& pool, size_t block,
                      std::vector<Key>* work, SortFn&& sort) {
  double samples[5];
  for (double& sample : samples) {
    *work = pool;
    Stopwatch watch;
    for (size_t i = 0; i + block <= work->size(); i += block) {
      sort(work->data() + i, block);
    }
    sample = watch.ElapsedSeconds();
  }
  std::sort(samples, samples + 5);
  return samples[2];
}

/// SortKeysBlock against std::sort on full-width signed keys and on the
/// paper's random family, at the batch (1024) and LSS-load (65536) sizes.
void BenchSortKeysBlock() {
  const struct {
    const char* name;
    std::vector<Key> pool;
  } key_sets[] = {
      {"full_width", RandomKeys(kSortPoolKeys, kSeed)},
      {"paper_random", PaperRandomKeys(kSortPoolKeys, kSeed)},
  };
  TablePrinter table({"Keys", "Block", "std::sort ns/key",
                      "SortKeysBlock ns/key", "Speedup"});
  std::vector<Key> work;
  for (const auto& key_set : key_sets) {
    for (const size_t block : {size_t{1024}, size_t{65536}}) {
      const double std_seconds =
          TimeBlockSorts(key_set.pool, block, &work,
                         [](Key* keys, size_t n) { std::sort(keys, keys + n); });
      const std::vector<Key> expected = work;
      const double kernel_seconds =
          TimeBlockSorts(key_set.pool, block, &work, SortKeysBlock);
      if (work != expected) {
        fprintf(stderr, "FATAL: sort_block output differs from std::sort\n");
        abort();
      }
      const auto records = static_cast<double>(key_set.pool.size());
      const double speedup = std_seconds / kernel_seconds;
      for (const bool is_kernel : {false, true}) {
        const double seconds = is_kernel ? kernel_seconds : std_seconds;
        JsonEntry entry;
        entry.Str("kernel", "sort_block")
            .Str("impl", is_kernel ? "SortKeysBlock" : "std_sort")
            .Str("keys", key_set.name)
            .Int("block_keys", block)
            .Int("records", key_set.pool.size())
            .Num("wall_seconds", seconds)
            .Num("keys_per_second", records / seconds);
        if (is_kernel) entry.Num("speedup", speedup);
        JsonReporter::Global().Add(entry);
      }
      table.AddRow({key_set.name, std::to_string(block),
                    TablePrinter::Num(std_seconds * 1e9 / records, 1),
                    TablePrinter::Num(kernel_seconds * 1e9 / records, 1),
                    TablePrinter::Num(speedup, 2) + "x"});
    }
  }
  table.Print(std::cout);
}

int Main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  BenchSortKeysBlock();

  JsonReporter::Global().Flush();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace twrs

int main(int argc, char** argv) { return twrs::bench::Main(argc, argv); }
