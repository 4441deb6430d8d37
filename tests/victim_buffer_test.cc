#include "core/victim_buffer.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/run_sink.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

// Records stream appends verbatim for inspection.
class RecordingSink : public RunSink {
 public:
  Status BeginRun() override { return Status::OK(); }
  Status AppendSorted(RunStream stream, const Key* keys, size_t n) override {
    appends[stream].insert(appends[stream].end(), keys, keys + n);
    return Status::OK();
  }
  Status EndRun() override { return Status::OK(); }
  Status Finish() override { return Status::OK(); }

  std::vector<Key> appends[kNumRunStreams];
};

TEST(VictimBufferTest, DisabledWhenCapacityZero) {
  VictimBuffer victim(0);
  EXPECT_FALSE(victim.enabled());
  EXPECT_FALSE(victim.bootstrapping());
  EXPECT_FALSE(victim.RangeContains(5));
}

TEST(VictimBufferTest, BootstrapSplitMatchesPaperExample) {
  // §4.5: bootstrap contents {40, 50, 39, 51}; largest gap (40, 50); the
  // lower part {39, 40} returns to the BottomHeap side, the upper part
  // {50, 51} to the TopHeap side; the valid range becomes (40, 50).
  VictimBuffer victim(4);
  for (Key k : {40, 50, 39, 51}) victim.Add(k);
  EXPECT_TRUE(victim.Full());
  std::vector<Key> lows;
  std::vector<Key> highs;
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  EXPECT_EQ(lows, std::vector<Key>({39, 40}));
  EXPECT_EQ(highs, std::vector<Key>({50, 51}));
  EXPECT_EQ(victim.range_lo(), 40);
  EXPECT_EQ(victim.range_hi(), 50);
  EXPECT_FALSE(victim.bootstrapping());
  EXPECT_TRUE(victim.RangeContains(44));
  EXPECT_TRUE(victim.RangeContains(40));
  EXPECT_FALSE(victim.RangeContains(39));
  EXPECT_FALSE(victim.RangeContains(51));
  EXPECT_EQ(victim.size(), 0u);
}

TEST(VictimBufferTest, ActiveFlushNestsRanges) {
  VictimBuffer victim(4);
  RecordingSink sink;
  for (Key k : {0, 10, 90, 100}) victim.Add(k);
  std::vector<Key> lows;
  std::vector<Key> highs;
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  ASSERT_EQ(victim.range_lo(), 10);
  ASSERT_EQ(victim.range_hi(), 90);

  // Absorb records inside (10, 90) and flush: ranges must nest, with the
  // low part on stream 3 ascending and the high part on stream 2
  // descending.
  for (Key k : {20, 30, 70, 80}) victim.Add(k);
  ASSERT_TWRS_OK(victim.FlushActive(&sink));
  EXPECT_EQ(victim.range_lo(), 30);
  EXPECT_EQ(victim.range_hi(), 70);
  EXPECT_EQ(sink.appends[kStream3], std::vector<Key>({20, 30}));
  EXPECT_EQ(sink.appends[kStream2], std::vector<Key>({80, 70}));

  // A second active flush keeps both streams sorted.
  for (Key k : {40, 60, 35, 65}) victim.Add(k);
  ASSERT_TWRS_OK(victim.FlushActive(&sink));
  EXPECT_EQ(sink.appends[kStream3], std::vector<Key>({20, 30, 35, 40}));
  EXPECT_EQ(sink.appends[kStream2], std::vector<Key>({80, 70, 65, 60}));
  EXPECT_EQ(victim.range_lo(), 40);
  EXPECT_EQ(victim.range_hi(), 60);
}

TEST(VictimBufferTest, FinalFlushWritesAscendingToStream3) {
  VictimBuffer victim(8);
  RecordingSink sink;
  for (Key k : {5, 1, 3}) victim.Add(k);
  ASSERT_TWRS_OK(victim.FlushFinal(&sink));
  EXPECT_EQ(sink.appends[kStream3], std::vector<Key>({1, 3, 5}));
  EXPECT_EQ(victim.size(), 0u);
}

TEST(VictimBufferTest, SingleRecordBootstrap) {
  VictimBuffer victim(1);
  victim.Add(7);
  std::vector<Key> lows;
  std::vector<Key> highs;
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  EXPECT_EQ(lows, std::vector<Key>({7}));
  EXPECT_TRUE(highs.empty());
  EXPECT_TRUE(victim.range_set());
  EXPECT_TRUE(victim.RangeContains(7));
  EXPECT_FALSE(victim.RangeContains(8));
}

TEST(VictimBufferTest, TiesInGapSelectionPickFirstLargest) {
  VictimBuffer victim(4);
  // Gaps: 10 (1..11), 10 (11..21), 10 (21..31) — first largest wins.
  for (Key k : {1, 11, 21, 31}) victim.Add(k);
  std::vector<Key> lows;
  std::vector<Key> highs;
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  EXPECT_EQ(victim.range_lo(), 1);
  EXPECT_EQ(victim.range_hi(), 11);
  EXPECT_EQ(lows, std::vector<Key>({1}));
  EXPECT_EQ(highs, std::vector<Key>({11, 21, 31}));
}

TEST(VictimBufferTest, GapWidthsSpanTheWholeKeyRange) {
  // INT64_MIN..100 is wider than INT64_MAX: as a signed difference it
  // overflows, and the narrow gap (100, 101) used to win.
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  const std::vector<Key> sample = {kMin, 100, 101, 102};
  std::vector<Key> lows;
  std::vector<Key> highs;
  // Both gap rules: the plain largest gap and the population-guarded one.
  for (bool guarded : {false, true}) {
    VictimBuffer victim(4);
    for (Key k : sample) victim.Add(k);
    ASSERT_TWRS_OK(victim.BootstrapSplit(
        &lows, &highs,
        guarded ? VictimBuffer::RangePopulation(
                      [](Key, Key) -> uint64_t { return 0; })
                : nullptr));
    EXPECT_EQ(victim.range_lo(), kMin) << guarded;
    EXPECT_EQ(victim.range_hi(), 100) << guarded;
    EXPECT_EQ(lows, std::vector<Key>({kMin}));
    EXPECT_EQ(highs, std::vector<Key>({100, 101, 102}));
  }
  // The active flush picks its gap by the same widths.
  VictimBuffer victim(3);
  RecordingSink sink;
  for (Key k : {kMin, Key{200}, kMax}) victim.Add(k);
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  EXPECT_EQ(victim.range_lo(), kMin);
  EXPECT_EQ(victim.range_hi(), 200);
  for (Key k : {kMin + 1, Key{100}, Key{101}}) victim.Add(k);
  ASSERT_TWRS_OK(victim.FlushActive(&sink));
  EXPECT_EQ(sink.appends[kStream3], std::vector<Key>({kMin + 1}));
  EXPECT_EQ(sink.appends[kStream2], std::vector<Key>({101, 100}));
  EXPECT_EQ(victim.range_lo(), kMin + 1);
  EXPECT_EQ(victim.range_hi(), 100);
}

TEST(VictimBufferTest, ResetForNewRunClearsRange) {
  VictimBuffer victim(2);
  victim.Add(1);
  victim.Add(10);
  std::vector<Key> lows;
  std::vector<Key> highs;
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  EXPECT_TRUE(victim.range_set());
  victim.ResetForNewRun();
  EXPECT_FALSE(victim.range_set());
  EXPECT_TRUE(victim.bootstrapping());
  EXPECT_EQ(victim.size(), 0u);
}

TEST(VictimBufferTest, FlushCountsAccumulate) {
  VictimBuffer victim(2);
  RecordingSink sink;
  victim.Add(1);
  victim.Add(100);
  std::vector<Key> lows;
  std::vector<Key> highs;
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  victim.Add(50);
  victim.Add(60);
  ASSERT_TWRS_OK(victim.FlushActive(&sink));
  EXPECT_EQ(victim.flush_count(), 2u);
}

TEST(VictimBufferTest, EmptyFlushesAreNoOps) {
  VictimBuffer victim(4);
  RecordingSink sink;
  std::vector<Key> lows;
  std::vector<Key> highs;
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  EXPECT_FALSE(victim.range_set());  // nothing sampled, no range chosen
  EXPECT_TRUE(lows.empty());
  EXPECT_TRUE(highs.empty());
  ASSERT_TWRS_OK(victim.FlushFinal(&sink));
  for (const auto& stream : sink.appends) EXPECT_TRUE(stream.empty());
}

TEST(VictimBufferTest, SingleRecordActiveFlushTightensLowerBound) {
  VictimBuffer victim(1);
  RecordingSink sink;
  victim.Add(10);
  std::vector<Key> lows;
  std::vector<Key> highs;
  ASSERT_TWRS_OK(victim.BootstrapSplit(&lows, &highs));
  // Range is the single point 10; widen artificially via a new run is not
  // possible, so exercise FlushActive on the single-slot buffer.
  victim.Add(10);
  ASSERT_TWRS_OK(victim.FlushActive(&sink));
  EXPECT_EQ(sink.appends[kStream3], std::vector<Key>({10}));
  EXPECT_EQ(victim.range_lo(), 10);
}

}  // namespace
}  // namespace twrs
