#include "merge/kway_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "core/run_sink.h"
#include "io/mem_env.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

// Writes `keys` (ascending) as a plain forward run file.
RunInfo MakeForwardRun(Env* env, const std::string& path,
                       const std::vector<Key>& keys) {
  EXPECT_TRUE(WriteAllRecords(env, path, keys).ok());
  RunInfo run;
  RunSegment seg;
  seg.path = path;
  seg.count = keys.size();
  run.length = keys.size();
  if (!keys.empty()) {
    run.min_key = keys.front();
    run.max_key = keys.back();
  }
  run.segments.push_back(std::move(seg));
  return run;
}

// Writes a multi-segment 2WRS-style run through FileRunSink.
RunInfo MakeFourStreamRun(Env* env, const std::string& prefix) {
  FileRunSinkOptions options;
  options.reverse.pages_per_file = 2;
  options.reverse.page_bytes = 64;
  FileRunSink sink(env, "d", prefix, options);
  EXPECT_TRUE(sink.BeginRun().ok());
  for (Key k : {15, 10, 5}) EXPECT_TRUE(sink.Append(kStream4, k).ok());
  for (Key k : {20, 25}) EXPECT_TRUE(sink.Append(kStream3, k).ok());
  for (Key k : {40, 35}) EXPECT_TRUE(sink.Append(kStream2, k).ok());
  for (Key k : {50, 60}) EXPECT_TRUE(sink.Append(kStream1, k).ok());
  EXPECT_TRUE(sink.EndRun().ok());
  EXPECT_TRUE(sink.Finish().ok());
  return sink.runs()[0];
}

std::vector<Key> MergeAll(Env* env, const std::vector<RunInfo>& runs) {
  std::vector<Key> out;
  Status s = KWayMergeToFile(env, runs, 256, "merged", nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = ReadAllRecords(env, "merged", &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(RunCursorTest, IteratesMultiSegmentRun) {
  MemEnv env;
  RunInfo run = MakeFourStreamRun(&env, "r");
  RunCursor cursor(&env, run);
  ASSERT_TWRS_OK(cursor.Init());
  std::vector<Key> keys;
  while (cursor.valid()) {
    keys.push_back(cursor.key());
    ASSERT_TWRS_OK(cursor.Next());
  }
  EXPECT_EQ(keys, std::vector<Key>({5, 10, 15, 20, 25, 35, 40, 50, 60}));
}

TEST(RunCursorTest, EmptyRunIsImmediatelyInvalid) {
  MemEnv env;
  RunInfo run;
  RunCursor cursor(&env, run);
  ASSERT_TWRS_OK(cursor.Init());
  EXPECT_FALSE(cursor.valid());
}

TEST(KWayMergeTest, MergesPlainRuns) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeForwardRun(&env, "a", {2, 8, 12, 16}));
  runs.push_back(MakeForwardRun(&env, "b", {3, 13, 14, 17}));
  runs.push_back(MakeForwardRun(&env, "c", {1, 7, 9, 18}));
  EXPECT_EQ(MergeAll(&env, runs),
            std::vector<Key>({1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18}));
}

TEST(KWayMergeTest, MergesMixedSegmentKinds) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeFourStreamRun(&env, "r"));  // 5..60
  runs.push_back(MakeForwardRun(&env, "f", {1, 22, 70}));
  std::vector<Key> merged = MergeAll(&env, runs);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  EXPECT_EQ(merged.size(), 12u);
  EXPECT_EQ(merged.front(), 1);
  EXPECT_EQ(merged.back(), 70);
}

TEST(KWayMergeTest, ZeroRunsYieldEmptyOutput) {
  MemEnv env;
  EXPECT_TRUE(MergeAll(&env, {}).empty());
}

TEST(KWayMergeTest, ToFileProducesRunInfo) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeForwardRun(&env, "a", {1, 3}));
  runs.push_back(MakeForwardRun(&env, "b", {2}));
  RunInfo out;
  ASSERT_TWRS_OK(KWayMergeToFile(&env, runs, 256, "merged", &out));
  EXPECT_EQ(out.length, 3u);
  EXPECT_EQ(out.min_key, 1);
  EXPECT_EQ(out.max_key, 3);
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "merged", &keys));
  EXPECT_EQ(keys, std::vector<Key>({1, 2, 3}));
}

TEST(KWayMergeTest, RemoveRunFilesDeletesAllSegments) {
  MemEnv env;
  RunInfo run = MakeFourStreamRun(&env, "r");
  ASSERT_GT(env.FileCount(), 0u);
  ASSERT_TWRS_OK(RemoveRunFiles(&env, run));
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(KWayMergeTest, RandomizedManyRunsProperty) {
  Random rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    MemEnv env;
    std::vector<RunInfo> runs;
    std::vector<Key> all;
    const size_t k = 1 + rng.Uniform(20);
    for (size_t w = 0; w < k; ++w) {
      std::vector<Key> keys(rng.Uniform(100));
      for (Key& key : keys) key = static_cast<Key>(rng.Uniform(10000));
      std::sort(keys.begin(), keys.end());
      all.insert(all.end(), keys.begin(), keys.end());
      runs.push_back(MakeForwardRun(&env, "run" + std::to_string(w), keys));
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(MergeAll(&env, runs), all) << "trial " << trial;
  }
}

// ------------------------------------------------ differential vs std::sort

// A key drawn mostly from a handful of values — the numeric limits among
// them — so ties, and ties at INT64_MAX in particular, are common.
Key DuplicateHeavyKey(Random* rng) {
  constexpr Key kMax = std::numeric_limits<Key>::max();
  constexpr Key kMin = std::numeric_limits<Key>::min();
  static constexpr Key kPool[] = {kMin, kMin + 1, -1, 0, 7, kMax - 1, kMax};
  if (rng->Uniform(4) == 0) return static_cast<Key>(rng->Uniform(1000)) - 500;
  return kPool[rng->Uniform(sizeof(kPool) / sizeof(kPool[0]))];
}

// Writes `keys` (ascending) as one run through FileRunSink. With `split`,
// the run is cut at random points into the four 2WRS streams — reverse
// segments spread over several small Appendix-A files — so a cursor
// crosses forward and reverse segments; without it, the run is one
// forward span written through AppendSorted, as Load-Sort-Store does.
RunInfo WriteRun(Env* env, const std::string& prefix,
                 const std::vector<Key>& keys, bool split, Random* rng) {
  FileRunSinkOptions options;
  options.block_bytes = 128;
  options.reverse.pages_per_file = 3;
  options.reverse.page_bytes = 64;
  FileRunSink sink(env, "d", prefix, options);
  EXPECT_TWRS_OK(sink.BeginRun());
  if (split) {
    size_t cuts[5] = {0, 0, 0, 0, keys.size()};
    for (int i = 1; i < 4; ++i) cuts[i] = rng->Uniform(keys.size() + 1);
    std::sort(cuts + 1, cuts + 4);
    // Ascending read order is stream 4, 3, 2, 1; 4 and 2 are written
    // descending.
    const RunStream order[4] = {kStream4, kStream3, kStream2, kStream1};
    for (int part = 0; part < 4; ++part) {
      const RunStream stream = order[part];
      const bool reverse = stream == kStream4 || stream == kStream2;
      for (size_t i = cuts[part]; i < cuts[part + 1]; ++i) {
        const size_t at = reverse ? cuts[part + 1] - 1 - (i - cuts[part]) : i;
        EXPECT_TWRS_OK(sink.Append(stream, keys[at]));
      }
    }
  } else {
    EXPECT_TWRS_OK(sink.AppendSorted(kStream1, keys.data(), keys.size()));
  }
  EXPECT_TWRS_OK(sink.EndRun());
  EXPECT_TWRS_OK(sink.Finish());
  return sink.runs().empty() ? RunInfo() : sink.runs()[0];
}

// One seeded trial: random runs (some mixing segment kinds), random cursor
// slices and a random merge window, merged with a small block so every
// cursor refills many times; the output and its RunInfo must equal what
// std::sort makes of the same slices. Trials with neither slices nor a
// window go through the KWayMergeToFile entry point instead.
void DifferentialTrial(uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Random rng(seed);
  MemEnv env;
  const size_t k = 1 + rng.Uniform(24);
  const size_t block_bytes = 64 + 8 * rng.Uniform(25);  // 64..256 B
  const bool slice = rng.Uniform(2) == 0;
  std::vector<RunInfo> runs;
  std::vector<std::unique_ptr<RunCursor>> cursors;
  std::vector<Key> expect;
  for (size_t w = 0; w < k; ++w) {
    std::vector<Key> keys(rng.Uniform(300));
    for (Key& key : keys) key = DuplicateHeavyKey(&rng);
    std::sort(keys.begin(), keys.end());
    runs.push_back(WriteRun(&env, "r" + std::to_string(w), keys,
                            rng.Uniform(2) == 0, &rng));
    uint64_t skip = 0;
    uint64_t limit = std::numeric_limits<uint64_t>::max();
    if (slice) {
      skip = rng.Uniform(keys.size() + 1);
      limit = rng.Uniform(keys.size() - skip + 2);
    }
    const size_t end = static_cast<size_t>(
        std::min<uint64_t>(keys.size(), skip + std::min<uint64_t>(
                                                   limit, keys.size())));
    expect.insert(expect.end(), keys.begin() + static_cast<ptrdiff_t>(skip),
                  keys.begin() + static_cast<ptrdiff_t>(end));
    cursors.push_back(
        std::make_unique<RunCursor>(&env, runs.back(), block_bytes));
    ASSERT_TWRS_OK(cursors.back()->InitSlice(skip, limit));
  }
  std::sort(expect.begin(), expect.end());
  MergeWindow window;
  if (rng.Uniform(2) == 0) {
    window.skip = rng.Uniform(expect.size() + 1);
    window.limit = rng.Uniform(expect.size() - window.skip + 2);
  }
  const size_t from = static_cast<size_t>(window.skip);
  const size_t to = static_cast<size_t>(std::min<uint64_t>(
      expect.size(), from + std::min<uint64_t>(window.limit, expect.size())));
  expect = std::vector<Key>(expect.begin() + static_cast<ptrdiff_t>(from),
                            expect.begin() + static_cast<ptrdiff_t>(to));

  MergeIoOptions io;
  io.block_bytes = block_bytes;
  RunInfo out;
  if (!slice && window.whole()) {
    ASSERT_TWRS_OK(KWayMergeToFile(&env, runs, io, "out", &out));
  } else {
    ASSERT_TWRS_OK(MergeCursorsToSink(&env, &cursors, io, window, "out",
                                      MergeOutputRange(), &out));
  }
  std::vector<Key> got;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
  EXPECT_EQ(got, expect);
  EXPECT_EQ(out.length, expect.size());
  if (!expect.empty()) {
    EXPECT_EQ(out.min_key, expect.front());
    EXPECT_EQ(out.max_key, expect.back());
  }
}

TEST(KWayMergeTest, DifferentialAgainstStdSort) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    DifferentialTrial(seed);
    if (::testing::Test::HasFailure()) break;  // the trace names the seed
  }
}

// ------------------------------------------------------------------ spans

// What std::merge makes of `ways`, each already ascending.
std::vector<Key> StdMergeAll(const std::vector<std::vector<Key>>& ways) {
  std::vector<Key> merged;
  for (const std::vector<Key>& way : ways) {
    std::vector<Key> next(merged.size() + way.size());
    std::merge(merged.begin(), merged.end(), way.begin(), way.end(),
               next.begin());
    merged = std::move(next);
  }
  return merged;
}

struct SpanMerge {
  std::vector<Key> out;
  uint64_t span_records = 0;
};

// Merges `runs` with `window` over cursors of `block_bytes`, counting the
// records that moved in spans.
SpanMerge MergeCountingSpans(Env* env, const std::vector<RunInfo>& runs,
                             size_t block_bytes,
                             const MergeWindow& window = MergeWindow()) {
  MergeCounters counters;
  MergeIoOptions io;
  io.block_bytes = block_bytes;
  io.counters = &counters;
  std::vector<std::unique_ptr<RunCursor>> cursors;
  for (const RunInfo& run : runs) {
    cursors.push_back(std::make_unique<RunCursor>(env, run, block_bytes));
    EXPECT_TWRS_OK(cursors.back()->Init());
  }
  EXPECT_TWRS_OK(MergeCursorsToSink(env, &cursors, io, window, "out",
                                    MergeOutputRange(), nullptr));
  SpanMerge result;
  EXPECT_TWRS_OK(ReadAllRecords(env, "out", &result.out));
  result.span_records = counters.span_records.load();
  return result;
}

// Writes every way as a plain forward run and merges them.
SpanMerge MergeWays(const std::vector<std::vector<Key>>& ways,
                    size_t block_bytes,
                    const MergeWindow& window = MergeWindow()) {
  MemEnv env;
  std::vector<RunInfo> runs;
  for (size_t w = 0; w < ways.size(); ++w) {
    runs.push_back(MakeForwardRun(&env, "w" + std::to_string(w), ways[w]));
  }
  return MergeCountingSpans(&env, runs, block_bytes, window);
}

std::vector<Key> Iota(Key from, size_t n) {
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = from + static_cast<Key>(i);
  return keys;
}

TEST(RunCursorTest, BufferedKeysAndSkipInBlock) {
  MemEnv env;
  RunInfo run = MakeForwardRun(&env, "a", Iota(0, 10));
  RunCursor cursor(&env, run, /*block_bytes=*/4 * kRecordBytes);
  ASSERT_TWRS_OK(cursor.Init());
  ASSERT_EQ(cursor.buffered_count(), 4u);
  EXPECT_EQ(cursor.buffered()[0], 0);
  EXPECT_EQ(cursor.buffered()[3], 3);
  EXPECT_TRUE(cursor.SkipInBlock(3));
  EXPECT_EQ(cursor.key(), 3);
  EXPECT_EQ(cursor.buffered_count(), 1u);
  EXPECT_FALSE(cursor.SkipInBlock(1));
  ASSERT_TWRS_OK(cursor.Refill());
  EXPECT_EQ(cursor.key(), 4);
  EXPECT_EQ(cursor.buffered_count(), 4u);
}

TEST(KWayMergeSpanTest, OneTwoWayRunIsOneBlockCopy) {
  // One input, cut into forward and reverse segments as 2WRS writes it:
  // with no other way the runner-up is a retired sentinel, so every
  // record moves in a span.
  Random rng(41);
  MemEnv env;
  std::vector<Key> keys(5000);
  for (Key& key : keys) key = static_cast<Key>(rng.Uniform(1 << 20));
  std::sort(keys.begin(), keys.end());
  const RunInfo run = WriteRun(&env, "r", keys, /*split=*/true, &rng);
  ASSERT_GT(run.segments.size(), 2u);
  const SpanMerge merged = MergeCountingSpans(&env, {run}, 256);
  EXPECT_EQ(merged.out, keys);
  EXPECT_EQ(merged.span_records, keys.size());
}

TEST(KWayMergeSpanTest, LongDisjointSpansMergeInSpans) {
  // Three ways taking turns at 700-key stretches of the key space.
  std::vector<std::vector<Key>> ways(3);
  for (size_t stretch = 0; stretch < 30; ++stretch) {
    const std::vector<Key> keys = Iota(static_cast<Key>(stretch * 700), 700);
    ways[stretch % 3].insert(ways[stretch % 3].end(), keys.begin(),
                             keys.end());
  }
  const SpanMerge merged = MergeWays(ways, 128 * kRecordBytes);
  EXPECT_EQ(merged.out, StdMergeAll(ways));
  // A stretch falls back to single records only from a block or refill
  // where its end is in reach until the next one.
  EXPECT_GT(merged.span_records, merged.out.size() * 8 / 10);
}

TEST(KWayMergeSpanTest, InterleavedSingleKeysMergeRecordByRecord) {
  const size_t k = 4;
  std::vector<std::vector<Key>> ways(k);
  for (size_t i = 0; i < 8000; ++i) {
    ways[i % k].push_back(static_cast<Key>(i));
  }
  const SpanMerge merged = MergeWays(ways, 64 * kRecordBytes);
  EXPECT_EQ(merged.out, StdMergeAll(ways));
  // The ways' blocks drain together, so after one way's refill the next
  // winner may hold a single buffered key, a one-record span; no longer
  // span ever qualifies.
  EXPECT_LT(merged.span_records, merged.out.size() / 50);
}

TEST(KWayMergeSpanTest, EqualKeysSpreadAcrossWaysWinByWay) {
  // Equal keys win by way index, so way 0's run of 5s is a span against
  // way 1's head of 5, and way 1's 5s follow once way 0 moves on.
  std::vector<std::vector<Key>> ways(3);
  for (size_t w = 0; w < ways.size(); ++w) {
    ways[w].assign(3000, 5);
    ways[w].insert(ways[w].end(), 3000, static_cast<Key>(9 - w));
  }
  const SpanMerge merged = MergeWays(ways, 256 * kRecordBytes);
  EXPECT_EQ(merged.out, StdMergeAll(ways));
  EXPECT_GT(merged.span_records, merged.out.size() * 8 / 10);
}

TEST(KWayMergeSpanTest, LiveMaxKeysOutlastRetiredWays) {
  // A retired way is INT64_MAX too, but ranks after every live way, so a
  // live run of INT64_MAX keys is still a span.
  constexpr Key kMax = std::numeric_limits<Key>::max();
  std::vector<std::vector<Key>> ways = {
      Iota(0, 100), Iota(50, 900), Iota(kMax - 3, 4), Iota(kMax - 1, 2)};
  ways[2].insert(ways[2].end(), 2000, kMax);
  ways[3].insert(ways[3].end(), 1500, kMax);
  const SpanMerge merged = MergeWays(ways, 128 * kRecordBytes);
  EXPECT_EQ(merged.out, StdMergeAll(ways));
  EXPECT_GT(merged.span_records, 3000u);
}

TEST(KWayMergeSpanTest, WindowBoundariesInsideSpans) {
  // Windows whose ends fall inside spans, on one input and on disjoint
  // inputs: the skipped prefix advances spans uncopied, and a span never
  // crosses the window's end.
  const std::vector<std::vector<Key>> one = {Iota(0, 5000)};
  const std::vector<std::vector<Key>> disjoint = {Iota(0, 2500),
                                                  Iota(2500, 2500)};
  for (const auto* ways : {&one, &disjoint}) {
    const std::vector<Key> all = StdMergeAll(*ways);
    for (const MergeWindow window :
         {MergeWindow{1500, 2100}, MergeWindow{0, 1500},
          MergeWindow{3777, kMergeNoLimit}, MergeWindow{2500, 1}}) {
      SCOPED_TRACE(::testing::Message() << ways->size() << " ways, skip "
                                        << window.skip);
      const SpanMerge merged = MergeWays(*ways, 300 * kRecordBytes, window);
      const size_t to = static_cast<size_t>(std::min<uint64_t>(
          all.size(), window.skip + std::min<uint64_t>(window.limit,
                                                       all.size())));
      EXPECT_EQ(merged.out,
                std::vector<Key>(all.begin() + window.skip, all.begin() + to));
      if (ways->size() == 1) {
        EXPECT_EQ(merged.span_records, merged.out.size());
      }
    }
  }
  // Top-K windows through the entry point that clamps the runs first.
  for (const bool take_last : {false, true}) {
    MemEnv env;
    std::vector<RunInfo> runs;
    for (size_t w = 0; w < disjoint.size(); ++w) {
      runs.push_back(
          MakeForwardRun(&env, "w" + std::to_string(w), disjoint[w]));
    }
    MergeIoOptions io;
    io.block_bytes = 300 * kRecordBytes;
    ASSERT_TWRS_OK(
        KWayMergeLimitToFile(&env, runs, io, 3333, take_last, "top", nullptr));
    std::vector<Key> got;
    ASSERT_TWRS_OK(ReadAllRecords(&env, "top", &got));
    const std::vector<Key> all = StdMergeAll(disjoint);
    EXPECT_EQ(got, take_last ? std::vector<Key>(all.end() - 3333, all.end())
                             : std::vector<Key>(all.begin(),
                                                all.begin() + 3333))
        << "take_last " << take_last;
  }
}

TEST(KWayMergeSpanTest, CursorBlockDrainingAtAnOutputBlockBoundary) {
  // With 1024-key cursor blocks, one input's block drains exactly where
  // each output block ends; with 512-key blocks over two interleaved
  // ways, way 1 drains on the last record of every output block, which
  // leaves no room for a span after its refill.
  const std::vector<std::vector<Key>> one = {Iota(0, 4096 + 7)};
  SpanMerge merged = MergeWays(one, 1024 * kRecordBytes);
  EXPECT_EQ(merged.out, one[0]);
  EXPECT_EQ(merged.span_records, merged.out.size());

  std::vector<std::vector<Key>> two(2);
  for (size_t i = 0; i < 4096; ++i) two[i % 2].push_back(static_cast<Key>(i));
  merged = MergeWays(two, 512 * kRecordBytes);
  EXPECT_EQ(merged.out, StdMergeAll(two));
}

}  // namespace
}  // namespace twrs
