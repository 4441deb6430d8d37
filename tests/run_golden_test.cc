// Pins the exact runs the sorter's two batched generators write: for each
// of the six input families at three memory sizes, each run's per-stream
// record count and an order-sensitive hash of the stream's keys. A change
// to the selection structures or the sink path that keeps the runs
// byte-identical passes unchanged; any change to what a stream holds, or
// in what order, fails here with the new values printed. A second table
// pins both generators on mixed input reshaped to reach the edges of
// batched 2WRS's presorted-batch path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/record_source.h"
#include "core/run_sink.h"
#include "merge/external_sorter.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/generators.h"

namespace twrs {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

// Hashes every stream of every run in arrival order, keeping no keys.
class HashingRunSink : public RunSink {
 public:
  Status BeginRun() override {
    for (int s = 0; s < kNumRunStreams; ++s) {
      count_[s] = 0;
      hash_[s] = kFnvOffset;
    }
    return Status::OK();
  }

  Status AppendSorted(RunStream stream, const Key* keys, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      hash_[stream] = FnvMix(hash_[stream], static_cast<uint64_t>(keys[i]));
    }
    count_[stream] += n;
    return Status::OK();
  }

  Status EndRun() override {
    RunInfo info;
    for (int s = 0; s < kNumRunStreams; ++s) {
      info.length += count_[s];
      stream_records_[s] += count_[s];
      digest_ = FnvMix(FnvMix(digest_, count_[s]), hash_[s]);
    }
    if (info.length > 0) runs_.push_back(info);
    return Status::OK();
  }

  Status Finish() override { return Status::OK(); }

  const uint64_t* stream_records() const { return stream_records_; }
  uint64_t digest() const { return digest_; }

 private:
  uint64_t count_[kNumRunStreams] = {};
  uint64_t hash_[kNumRunStreams] = {};
  uint64_t stream_records_[kNumRunStreams] = {};
  uint64_t digest_ = kFnvOffset;
};

struct Golden {
  RunGenAlgorithm algorithm;
  int dataset;  // a Dataset, or an EdgeInput in kEdgeGolden
  size_t memory;
  uint64_t runs;
  uint64_t stream_records[kNumRunStreams];
  uint64_t digest;
};

constexpr RunGenAlgorithm kRS = RunGenAlgorithm::kReplacementSelection;
constexpr RunGenAlgorithm k2WRS =
    RunGenAlgorithm::kTwoWayReplacementSelection;

const Golden kGolden[] = {
    {kRS, 0, 2048, 1, {9191, 0, 0, 0}, 0x7278c6d5a194d099ULL},
    {kRS, 0, 8192, 1, {33767, 0, 0, 0}, 0x5c4fe549ae01bdc1ULL},
    {kRS, 0, 65536, 1, {263143, 0, 0, 0}, 0xb826d566e7c83f77ULL},
    {kRS, 1, 2048, 5, {9191, 0, 0, 0}, 0x469b3377e364d878ULL},
    {kRS, 1, 8192, 5, {33767, 0, 0, 0}, 0x408f150d91b81ed0ULL},
    {kRS, 1, 65536, 5, {263143, 0, 0, 0}, 0x7416bc5cd6c33f1dULL},
    {kRS, 2, 2048, 4, {9191, 0, 0, 0}, 0xddbedba0ab67a905ULL},
    {kRS, 2, 8192, 3, {33767, 0, 0, 0}, 0xc0d687ed46bd8872ULL},
    {kRS, 2, 65536, 3, {263143, 0, 0, 0}, 0x4f1cfe7b889ca6d1ULL},
    {kRS, 3, 2048, 4, {9191, 0, 0, 0}, 0xd082c2f0034b7b7fULL},
    {kRS, 3, 8192, 3, {33767, 0, 0, 0}, 0x0c55608c84986f46ULL},
    {kRS, 3, 65536, 3, {263143, 0, 0, 0}, 0x82386ded29e42352ULL},
    {kRS, 4, 2048, 3, {9191, 0, 0, 0}, 0x8447c31114b51bccULL},
    {kRS, 4, 8192, 3, {33767, 0, 0, 0}, 0xa549419926151669ULL},
    {kRS, 4, 65536, 3, {263143, 0, 0, 0}, 0x1d23735f0d39bb7aULL},
    {kRS, 5, 2048, 4, {9191, 0, 0, 0}, 0x0221e66a8ba8ca77ULL},
    {kRS, 5, 8192, 4, {33767, 0, 0, 0}, 0x7816455f1afe3a32ULL},
    {kRS, 5, 65536, 4, {263143, 0, 0, 0}, 0x404caf8e453276f5ULL},
    {k2WRS, 0, 2048, 1, {9167, 0, 2, 22}, 0x5af08b9a7d7df21bULL},
    {k2WRS, 0, 8192, 1, {33737, 0, 2, 28}, 0xce5d00134b497f95ULL},
    {k2WRS, 0, 65536, 1, {262643, 0, 2, 498}, 0xcccbbef0f3bbfbbcULL},
    {k2WRS, 1, 2048, 1, {13, 0, 2, 9176}, 0xf1850239eac664faULL},
    {k2WRS, 1, 8192, 1, {71, 0, 2, 33694}, 0x22d45a2ab5a21c86ULL},
    {k2WRS, 1, 65536, 1, {709, 0, 2, 262432}, 0xbaf193714f761097ULL},
    {k2WRS, 2, 2048, 4, {5604, 7, 26, 3554}, 0xb8d0a4281f49a90cULL},
    {k2WRS, 2, 8192, 3, {20894, 0, 51, 12822}, 0x6a7eccf4cb0e46aaULL},
    {k2WRS, 2, 65536, 3, {165967, 0, 53, 97123}, 0x1e0f3f9936c19d5fULL},
    {k2WRS, 3, 2048, 3, {4574, 0, 27, 4590}, 0x4fbbb685a199f64cULL},
    {k2WRS, 3, 8192, 3, {17282, 57, 49, 16379}, 0x993dbf22042bfdadULL},
    {k2WRS, 3, 65536, 3, {131748, 0, 216, 131179}, 0xcdcafa1bc6759e0eULL},
    {k2WRS, 4, 2048, 1, {4599, 0, 2, 4590}, 0x09b1518a83f4b1feULL},
    {k2WRS, 4, 8192, 1, {16883, 0, 2, 16882}, 0x7a30a3f43b2bf2c0ULL},
    {k2WRS, 4, 65536, 1, {131839, 0, 2, 131302}, 0x21f5e15ccccaa043ULL},
    {k2WRS, 5, 2048, 1, {2297, 0, 2, 6892}, 0x82025fac70a76cf6ULL},
    {k2WRS, 5, 8192, 1, {8474, 0, 2, 25291}, 0xf76352f6487cd988ULL},
    {k2WRS, 5, 65536, 1, {65954, 0, 2, 197187}, 0xdaf23172afedc80dULL},
};

// Mixed input (Dataset::kMixed) reshaped so that batches whose keys need
// no sort meet equal keys, sorted batches and the ends of the key range.
enum EdgeInput : int {
  kTripled,    // every key three times: equal neighbours and keys equal
               // to a stream bound
  kSprinkled,  // a uniform random key every ~1,500 records, so presorted
               // and sorted batches alternate within a run
  kAtKeyMin,   // shifted so the smallest key is the smallest Key
  kAtKeyMax,   // shifted so the largest key is the largest Key
  kPastKeyMin,  // shifted 3/4 of its key span further down, saturating: the
                // smallest Key caps the falling trend and the lower half
                // of the rising one, so the victim range starts there
  kPastKeyMax,  // the same past the largest Key
  kNumEdgeInputs,
};

const Golden kEdgeGolden[] = {
    {kRS, 0, 2048, 3, {9191, 0, 0, 0}, 0x44e3c4464f440386ULL},
    {k2WRS, 0, 2048, 1, {4587, 0, 6, 4598}, 0xa9f0e9d04e3a6dbcULL},
    {kRS, 0, 65536, 3, {263143, 0, 0, 0}, 0x132369e1111ad723ULL},
    {k2WRS, 0, 65536, 1, {131698, 0, 6, 131439}, 0x1f764dec8c2ac106ULL},
    {kRS, 1, 2048, 3, {9191, 0, 0, 0}, 0x696003b5cf9624d5ULL},
    {k2WRS, 1, 2048, 2, {4591, 0, 4, 4596}, 0x01c14aed89a23a0aULL},
    {kRS, 1, 65536, 3, {263143, 0, 0, 0}, 0x8efa3953bcd55454ULL},
    {k2WRS, 1, 65536, 2, {131766, 0, 50, 131327}, 0x72fa4b191319af45ULL},
    {kRS, 2, 2048, 3, {9191, 0, 0, 0}, 0xf65a4cf76a965d1eULL},
    {k2WRS, 2, 2048, 1, {4593, 0, 2, 4596}, 0x966d9e53ffdba2beULL},
    {kRS, 2, 65536, 3, {263143, 0, 0, 0}, 0x5418d7904dc2772cULL},
    {k2WRS, 2, 65536, 1, {131725, 0, 2, 131416}, 0x114fcbee223310e9ULL},
    {kRS, 3, 2048, 3, {9191, 0, 0, 0}, 0x15168e3e5b2a8182ULL},
    {k2WRS, 3, 2048, 1, {4593, 0, 2, 4596}, 0xd92bfac06465ca3dULL},
    {kRS, 3, 65536, 3, {263143, 0, 0, 0}, 0xc1fbd6ef55e0fa1aULL},
    {k2WRS, 3, 65536, 1, {131725, 0, 2, 131416}, 0x8969d63d781fbe9aULL},
    {kRS, 4, 2048, 2, {9191, 0, 0, 0}, 0x588fbada18463d68ULL},
    {k2WRS, 4, 2048, 1, {2297, 6610, 284, 0}, 0x2685afcae01860e5ULL},
    {kRS, 4, 65536, 2, {263143, 0, 0, 0}, 0xf41cda6a4faf0fb8ULL},
    {k2WRS, 4, 65536, 1, {65786, 196705, 652, 0}, 0x765eb4a22114d899ULL},
    {kRS, 5, 2048, 3, {9191, 0, 0, 0}, 0x9992a1ce4bb730b2ULL},
    {k2WRS, 5, 2048, 1, {0, 6591, 301, 2299}, 0x55644cc3e6ef2d4eULL},
    {kRS, 5, 65536, 3, {263143, 0, 0, 0}, 0x1290f83b20bf1928ULL},
    {k2WRS, 5, 65536, 1, {0, 197093, 264, 65786}, 0xc949e009cabdefe0ULL},
};

std::string Describe(const Golden& g) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "{%s, %d, %zu, %llu, {%llu, %llu, %llu, %llu}, "
                "0x%016llxULL},",
                g.algorithm == kRS ? "kRS" : "k2WRS", g.dataset, g.memory,
                static_cast<unsigned long long>(g.runs),
                static_cast<unsigned long long>(g.stream_records[0]),
                static_cast<unsigned long long>(g.stream_records[1]),
                static_cast<unsigned long long>(g.stream_records[2]),
                static_cast<unsigned long long>(g.stream_records[3]),
                static_cast<unsigned long long>(g.digest));
  return line;
}

WorkloadOptions Workload(size_t memory, uint64_t seed) {
  WorkloadOptions wl;
  wl.num_records = 4 * memory + 999;
  wl.seed = seed;
  return wl;
}

std::vector<Key> EdgeKeys(EdgeInput edge, size_t memory) {
  constexpr Key kKeyMin = std::numeric_limits<Key>::min();
  constexpr Key kKeyMax = std::numeric_limits<Key>::max();
  std::vector<Key> keys = testing::Drain(
      MakeWorkload(Dataset::kMixed, Workload(memory, memory)).get());
  const auto [min, max] = std::minmax_element(keys.begin(), keys.end());
  const Key lo = *min;
  const Key hi = *max;
  const Key past = (hi - lo) / 4 * 3;
  Random rng(memory);
  switch (edge) {
    case kTripled:  // back to front, so keys[i / 3] is still unwritten
      for (size_t i = keys.size(); i-- > 0;) keys[i] = keys[i / 3];
      break;
    case kSprinkled:
      for (Key& key : keys) {
        if (rng.Uniform(1500) != 0) continue;
        key = lo + static_cast<Key>(
                       rng.Uniform(static_cast<uint64_t>(hi - lo) + 1));
      }
      break;
    case kAtKeyMin:
      for (Key& key : keys) key = kKeyMin + (key - lo);
      break;
    case kAtKeyMax:
      for (Key& key : keys) key = kKeyMax - (hi - key);
      break;
    case kPastKeyMin:
      for (Key& key : keys) key = kKeyMin + std::max<Key>(0, key - lo - past);
      break;
    case kPastKeyMax:
      for (Key& key : keys) key = kKeyMax - std::max<Key>(0, hi - key - past);
      break;
    case kNumEdgeInputs:
      break;
  }
  return keys;
}

Golden Generate(RunGenAlgorithm algorithm, int input, RecordSource* source,
                size_t memory) {
  const auto generator = MakeRunGenerator(algorithm, memory);
  HashingRunSink sink;
  RunGenStats stats;
  const Status s = generator->Generate(source, &sink, &stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  Golden g{algorithm, input, memory, stats.num_runs(), {}, sink.digest()};
  for (int i = 0; i < kNumRunStreams; ++i) {
    g.stream_records[i] = sink.stream_records()[i];
  }
  return g;
}

// Compares `got` with row `i` of `table`, printing the line to pin when
// the row is missing.
template <size_t N>
void ExpectPinned(const Golden (&table)[N], size_t i, const Golden& got) {
  const std::string line = Describe(got);
  if (i >= N) {
    ADD_FAILURE() << "no pinned value for\n  " << line;
  } else {
    EXPECT_EQ(line, Describe(table[i]));
  }
}

TEST(RunGoldenTest, BatchedGeneratorsWriteThePinnedRuns) {
  size_t i = 0;
  for (RunGenAlgorithm algorithm : {kRS, k2WRS}) {
    for (int d = 0; d < kNumDatasets; ++d) {
      SCOPED_TRACE(DatasetName(static_cast<Dataset>(d)));
      for (size_t memory : {2048u, 8192u, 65536u}) {
        const auto source =
            MakeWorkload(static_cast<Dataset>(d),
                         Workload(memory, memory + static_cast<uint64_t>(d)));
        ExpectPinned(kGolden, i++,
                     Generate(algorithm, d, source.get(), memory));
      }
    }
  }
  EXPECT_EQ(i, std::size(kGolden));
}

TEST(RunGoldenTest, EdgeInputsWriteThePinnedRuns) {
  size_t i = 0;
  for (int edge = 0; edge < kNumEdgeInputs; ++edge) {
    SCOPED_TRACE(::testing::Message() << "edge input " << edge);
    for (size_t memory : {2048u, 65536u}) {
      const std::vector<Key> keys =
          EdgeKeys(static_cast<EdgeInput>(edge), memory);
      for (RunGenAlgorithm algorithm : {kRS, k2WRS}) {
        VectorSource source(keys);
        ExpectPinned(kEdgeGolden, i++,
                     Generate(algorithm, edge, &source, memory));
      }
    }
  }
  EXPECT_EQ(i, std::size(kEdgeGolden));
}

}  // namespace
}  // namespace twrs
