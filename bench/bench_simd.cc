/// Per-kernel microbenchmarks for the src/simd layer.
///
/// Every twinned kernel is timed through its fixed-level internal twins on
/// identical inputs; SortKeysBlock, which has one portable body, is timed
/// against std::sort at the engine's two block sizes. Every output is
/// cross-checked against its reference before any number is reported (a
/// mismatch aborts), and the results flow into the standard --json report
/// (schema_version 2, diffable with tools/bench_diff.py). On hosts without
/// AVX2 only the scalar rows of the twinned kernels are emitted.
///
///   bench_simd [--json BENCH_simd.json] [--profile NAME]

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "bench/bench_common.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/table_printer.h"

namespace twrs {
namespace bench {
namespace {

constexpr size_t kKeys = 1 << 16;
constexpr uint64_t kSeed = 20100802;  // the paper's VLDB year + figure

std::vector<Key> RandomKeys(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = static_cast<Key>(rng());
  return keys;
}

/// Median-of-5 wall time of one repetition of `fn` (each sample runs
/// `reps` back-to-back calls), keeping a single noisy sample from
/// polluting the speedup ratios.
template <typename Fn>
double TimeSeconds(Fn&& fn, int reps) {
  double samples[5];
  for (double& sample : samples) {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) fn();
    sample = watch.ElapsedSeconds() / reps;
  }
  std::sort(samples, samples + 5);
  return samples[2];
}

struct KernelTiming {
  const char* kernel;
  uint64_t records;
  double scalar_seconds = 0.0;
  double avx2_seconds = 0.0;  // 0 when the host lacks AVX2
};

void Report(const KernelTiming& timing, TablePrinter* table) {
  JsonEntry scalar;
  scalar.Str("kernel", timing.kernel)
      .Str("dispatch", "scalar")
      .Int("records", timing.records)
      .Num("wall_seconds", timing.scalar_seconds)
      .Num("keys_per_second",
           static_cast<double>(timing.records) / timing.scalar_seconds);
  JsonReporter::Global().Add(scalar);
  const bool has_avx2 = timing.avx2_seconds > 0.0;
  const double speedup =
      has_avx2 ? timing.scalar_seconds / timing.avx2_seconds : 0.0;
  if (has_avx2) {
    JsonEntry avx2;
    avx2.Str("kernel", timing.kernel)
        .Str("dispatch", "avx2")
        .Int("records", timing.records)
        .Num("wall_seconds", timing.avx2_seconds)
        .Num("keys_per_second",
             static_cast<double>(timing.records) / timing.avx2_seconds)
        .Num("speedup", speedup);
    JsonReporter::Global().Add(avx2);
  }
  table->AddRow({timing.kernel, std::to_string(timing.records),
                 TablePrinter::Num(timing.scalar_seconds * 1e6, 1),
                 has_avx2 ? TablePrinter::Num(timing.avx2_seconds * 1e6, 1)
                          : "-",
                 has_avx2 ? TablePrinter::Num(speedup, 2) + "x" : "-"});
}

void RequireIdentical(bool identical, const char* kernel) {
  if (!identical) {
    fprintf(stderr, "FATAL: %s avx2 output differs from scalar\n", kernel);
    abort();
  }
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
          TimeBlockSorts(key_set.pool, block, &work, simd::SortKeysBlock);
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

KernelTiming BenchPartition(bool avx2) {
  const std::vector<Key> keys = RandomKeys(kKeys, kSeed + 1);
  std::vector<Key> splitters = RandomKeys(31, kSeed + 2);
  std::sort(splitters.begin(), splitters.end());
  std::vector<uint32_t> bucket(kKeys);
  KernelTiming timing{"partition", kKeys, 0.0, 0.0};
  timing.scalar_seconds = TimeSeconds(
      [&] {
        simd::internal::PartitionBySplittersScalar(
            keys.data(), keys.size(), splitters.data(), splitters.size(),
            bucket.data());
      },
      20);
  if (avx2) {
    const std::vector<uint32_t> expected = bucket;
    timing.avx2_seconds = TimeSeconds(
        [&] {
          simd::internal::PartitionBySplittersAvx2(
              keys.data(), keys.size(), splitters.data(), splitters.size(),
              bucket.data());
        },
        20);
    RequireIdentical(bucket == expected, timing.kernel);
  }
  return timing;
}

KernelTiming BenchEncode(bool avx2) {
  const std::vector<Key> keys = RandomKeys(kKeys, kSeed + 3);
  std::vector<uint8_t> bytes(kKeys * kRecordBytes);
  KernelTiming timing{"encode", kKeys, 0.0, 0.0};
  timing.scalar_seconds = TimeSeconds(
      [&] {
        simd::internal::EncodeKeysBatchScalar(keys.data(), keys.size(),
                                              bytes.data());
      },
      200);
  if (avx2) {
    const std::vector<uint8_t> expected = bytes;
    timing.avx2_seconds = TimeSeconds(
        [&] {
          simd::internal::EncodeKeysBatchAvx2(keys.data(), keys.size(),
                                              bytes.data());
        },
        200);
    RequireIdentical(bytes == expected, timing.kernel);
  }
  return timing;
}

KernelTiming BenchDecode(bool avx2) {
  const std::vector<Key> source = RandomKeys(kKeys, kSeed + 4);
  std::vector<uint8_t> bytes(kKeys * kRecordBytes);
  simd::internal::EncodeKeysBatchScalar(source.data(), source.size(),
                                        bytes.data());
  std::vector<Key> keys(kKeys);
  KernelTiming timing{"decode", kKeys, 0.0, 0.0};
  timing.scalar_seconds = TimeSeconds(
      [&] {
        simd::internal::DecodeKeysBatchScalar(bytes.data(), keys.size(),
                                              keys.data());
      },
      200);
  if (avx2) {
    const std::vector<Key> expected = keys;
    timing.avx2_seconds = TimeSeconds(
        [&] {
          simd::internal::DecodeKeysBatchAvx2(bytes.data(), keys.size(),
                                              keys.data());
        },
        200);
    RequireIdentical(keys == expected, timing.kernel);
  }
  return timing;
}

/// MinIndexN is a per-selection primitive, so one repetition slides an
/// 8-wide window over the key array — the shape of an 8-way merge's inner
/// loop — and folds the picked indices into a checksum.
KernelTiming BenchMinIndex(bool avx2) {
  const std::vector<Key> keys = RandomKeys(kKeys, kSeed + 5);
  constexpr size_t kWindow = 8;
  const size_t selections = keys.size() - kWindow + 1;
  size_t scalar_sum = 0;
  KernelTiming timing{"min_index", selections, 0.0, 0.0};
  timing.scalar_seconds = TimeSeconds(
      [&] {
        size_t sum = 0;
        for (size_t i = 0; i + kWindow <= keys.size(); ++i) {
          sum += simd::internal::MinIndexNScalar(keys.data() + i, kWindow);
        }
        scalar_sum = sum;
      },
      20);
  if (avx2) {
    size_t avx2_sum = 0;
    timing.avx2_seconds = TimeSeconds(
        [&] {
          size_t sum = 0;
          for (size_t i = 0; i + kWindow <= keys.size(); ++i) {
            sum += simd::internal::MinIndexNAvx2(keys.data() + i, kWindow);
          }
          avx2_sum = sum;
        },
        20);
    RequireIdentical(avx2_sum == scalar_sum, timing.kernel);
  }
  return timing;
}

int Main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  const bool avx2 = simd::CpuSupportsAvx2();
  printf("simd dispatch: %s (avx2 compiled: %s, TWRS_FORCE_SCALAR honored "
         "by dispatched call sites, twins pinned here)\n",
         simd::DispatchLevelName(simd::ActiveDispatchLevel()),
         simd::internal::Avx2Compiled() ? "yes" : "no");

  TablePrinter table({"Kernel", "Records", "Scalar us", "AVX2 us",
                      "Speedup"});
  Report(BenchPartition(avx2), &table);
  Report(BenchEncode(avx2), &table);
  Report(BenchDecode(avx2), &table);
  Report(BenchMinIndex(avx2), &table);
  table.Print(std::cout);
  printf("\n");
  BenchSortKeysBlock();

  JsonReporter::Global().Flush();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace twrs

int main(int argc, char** argv) { return twrs::bench::Main(argc, argv); }
