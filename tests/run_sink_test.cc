#include "core/run_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "io/mem_env.h"
#include "merge/kway_merge.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

TEST(CountingRunSinkTest, CountsLengthsAndBounds) {
  CountingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.Append(kStream1, 5));
  ASSERT_TWRS_OK(sink.Append(kStream4, 1));
  ASSERT_TWRS_OK(sink.Append(kStream1, 9));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.Append(kStream1, 2));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.runs().size(), 2u);
  EXPECT_EQ(sink.runs()[0].length, 3u);
  EXPECT_EQ(sink.runs()[0].min_key, 1);
  EXPECT_EQ(sink.runs()[0].max_key, 9);
  EXPECT_EQ(sink.runs()[1].length, 1u);
}

TEST(CountingRunSinkTest, EmptyRunsAreDropped) {
  CountingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.EndRun());
  EXPECT_TRUE(sink.runs().empty());
}

TEST(CountingRunSinkTest, ProtocolViolationsAreRejected) {
  CountingRunSink sink;
  EXPECT_FALSE(sink.Append(kStream1, 1).ok());  // outside a run
  EXPECT_FALSE(sink.EndRun().ok());
  ASSERT_TWRS_OK(sink.BeginRun());
  EXPECT_FALSE(sink.BeginRun().ok());  // nested
}

TEST(CollectingRunSinkTest, AssemblesStreamsInAscendingOrder) {
  CollectingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  // Stream contents mirror Fig 4.9's layout: s4 decreasing low keys, s3
  // ascending, s2 decreasing, s1 ascending high keys.
  ASSERT_TWRS_OK(sink.Append(kStream4, 38));
  ASSERT_TWRS_OK(sink.Append(kStream4, 37));
  ASSERT_TWRS_OK(sink.Append(kStream3, 39));
  ASSERT_TWRS_OK(sink.Append(kStream3, 40));
  ASSERT_TWRS_OK(sink.Append(kStream2, 51));
  ASSERT_TWRS_OK(sink.Append(kStream2, 50));
  ASSERT_TWRS_OK(sink.Append(kStream1, 52));
  ASSERT_TWRS_OK(sink.Append(kStream1, 53));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.collected().size(), 1u);
  EXPECT_EQ(sink.collected()[0],
            std::vector<Key>({37, 38, 39, 40, 50, 51, 52, 53}));
  EXPECT_EQ(sink.runs()[0].min_key, 37);
  EXPECT_EQ(sink.runs()[0].max_key, 53);
}

TEST(CollectingRunSinkTest, RejectsStreamOrderViolations) {
  CollectingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.Append(kStream1, 10));
  EXPECT_FALSE(sink.Append(kStream1, 9).ok());  // stream 1 must ascend
  ASSERT_TWRS_OK(sink.Append(kStream4, 5));
  EXPECT_FALSE(sink.Append(kStream4, 6).ok());  // stream 4 must descend
}

TEST(FileRunSinkTest, WritesSegmentsReadableAsOneAscendingRun) {
  MemEnv env;
  FileRunSinkOptions options;
  options.reverse.pages_per_file = 2;
  options.reverse.page_bytes = 64;
  FileRunSink sink(&env, "dir", "t", options);
  ASSERT_TWRS_OK(sink.BeginRun());
  for (Key k : {30, 20, 10}) ASSERT_TWRS_OK(sink.Append(kStream4, k));
  for (Key k : {40, 45}) ASSERT_TWRS_OK(sink.Append(kStream3, k));
  for (Key k : {70, 60}) ASSERT_TWRS_OK(sink.Append(kStream2, k));
  for (Key k : {80, 90}) ASSERT_TWRS_OK(sink.Append(kStream1, k));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());

  ASSERT_EQ(sink.runs().size(), 1u);
  const RunInfo& run = sink.runs()[0];
  EXPECT_EQ(run.length, 9u);
  EXPECT_EQ(run.min_key, 10);
  EXPECT_EQ(run.max_key, 90);
  ASSERT_EQ(run.segments.size(), 4u);
  // Ascending read order 4, 3, 2, 1; reverse flags on 4 and 2.
  EXPECT_TRUE(run.segments[0].reverse);
  EXPECT_FALSE(run.segments[1].reverse);
  EXPECT_TRUE(run.segments[2].reverse);
  EXPECT_FALSE(run.segments[3].reverse);

  RunCursor cursor(&env, run);
  ASSERT_TWRS_OK(cursor.Init());
  std::vector<Key> keys;
  while (cursor.valid()) {
    keys.push_back(cursor.key());
    ASSERT_TWRS_OK(cursor.Next());
  }
  EXPECT_EQ(keys, std::vector<Key>({10, 20, 30, 40, 45, 60, 70, 80, 90}));
}

TEST(FileRunSinkTest, UnusedStreamsProduceNoSegments) {
  MemEnv env;
  FileRunSink sink(&env, "dir", "t");
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.Append(kStream1, 1));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.runs()[0].segments.size(), 1u);
  EXPECT_FALSE(sink.runs()[0].segments[0].reverse);
}

TEST(FileRunSinkTest, MultipleRunsGetDistinctFiles) {
  MemEnv env;
  FileRunSink sink(&env, "dir", "t");
  for (int r = 0; r < 3; ++r) {
    ASSERT_TWRS_OK(sink.BeginRun());
    ASSERT_TWRS_OK(sink.Append(kStream1, r));
    ASSERT_TWRS_OK(sink.EndRun());
  }
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.runs().size(), 3u);
  EXPECT_NE(sink.runs()[0].segments[0].path, sink.runs()[1].segments[0].path);
  EXPECT_NE(sink.runs()[1].segments[0].path, sink.runs()[2].segments[0].path);
}

TEST(FileRunSinkTest, AppendSortedMatchesPerRecordAppends) {
  // One span through AppendSorted and the same keys one Append at a time
  // must leave identical run files and RunInfo; a small block makes the
  // span straddle several writer flushes.
  std::vector<Key> keys;
  for (Key k = -500; k < 700; k += 3) keys.push_back(k);
  FileRunSinkOptions options;
  options.block_bytes = 128;
  MemEnv span_env;
  MemEnv record_env;
  FileRunSink span_sink(&span_env, "dir", "t", options);
  FileRunSink record_sink(&record_env, "dir", "t", options);
  ASSERT_TWRS_OK(span_sink.BeginRun());
  ASSERT_TWRS_OK(span_sink.AppendSorted(kStream1, keys.data(), keys.size()));
  ASSERT_TWRS_OK(span_sink.EndRun());
  ASSERT_TWRS_OK(record_sink.BeginRun());
  for (Key k : keys) ASSERT_TWRS_OK(record_sink.Append(kStream1, k));
  ASSERT_TWRS_OK(record_sink.EndRun());

  ASSERT_EQ(span_sink.runs().size(), 1u);
  ASSERT_EQ(record_sink.runs().size(), 1u);
  const RunInfo& span = span_sink.runs()[0];
  const RunInfo& record = record_sink.runs()[0];
  EXPECT_EQ(span.length, record.length);
  EXPECT_EQ(span.min_key, -500);
  EXPECT_EQ(span.max_key, keys.back());
  EXPECT_EQ(span.min_key, record.min_key);
  EXPECT_EQ(span.max_key, record.max_key);
  ASSERT_EQ(span.segments.size(), 1u);
  ASSERT_EQ(record.segments.size(), 1u);
  EXPECT_EQ(span.segments[0].path, record.segments[0].path);
  ASSERT_NE(span_env.FileContents(span.segments[0].path), nullptr);
  EXPECT_EQ(*span_env.FileContents(span.segments[0].path),
            *record_env.FileContents(record.segments[0].path));
}

TEST(FileRunSinkTest, AppendSortedWidensBoundsAndSkipsEmptySpans) {
  MemEnv env;
  FileRunSink sink(&env, "dir", "t");
  // An empty span opens no stream file.
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.AppendSorted(kStream1, nullptr, 0));
  ASSERT_TWRS_OK(sink.EndRun());
  EXPECT_TRUE(sink.runs().empty());
  EXPECT_EQ(env.FileCount(), 0u);
  // Spans after per-record appends widen the run's bounds from their ends.
  const std::vector<Key> low = {-9, -4};
  const std::vector<Key> high = {50, 60};
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.Append(kStream4, 3));
  ASSERT_TWRS_OK(sink.AppendSorted(kStream1, low.data(), low.size()));
  ASSERT_TWRS_OK(sink.AppendSorted(kStream1, high.data(), high.size()));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.runs()[0].length, 5u);
  EXPECT_EQ(sink.runs()[0].min_key, -9);
  EXPECT_EQ(sink.runs()[0].max_key, 60);
  // Outside a run, a span is a protocol violation like Append.
  EXPECT_TRUE(sink.AppendSorted(kStream1, low.data(), low.size()).IsInvalidArgument());
}

TEST(CountingRunSinkTest, AppendSortedCountsTheSpanAndItsBounds) {
  CountingRunSink sink;
  const std::vector<Key> keys = {-3, 1, 8};
  const std::vector<Key> falling = {20, 15, -7};
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.AppendSorted(kStream1, keys.data(), keys.size()));
  ASSERT_TWRS_OK(sink.EndRun());
  // A decreasing stream's span has its bounds the other way round.
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.AppendSorted(kStream2, falling.data(), falling.size()));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_EQ(sink.runs().size(), 2u);
  EXPECT_EQ(sink.runs()[0].length, 3u);
  EXPECT_EQ(sink.runs()[0].min_key, -3);
  EXPECT_EQ(sink.runs()[0].max_key, 8);
  EXPECT_EQ(sink.runs()[1].length, 3u);
  EXPECT_EQ(sink.runs()[1].min_key, -7);
  EXPECT_EQ(sink.runs()[1].max_key, 20);
}

// The keys of one run split across the four streams, each in its order.
struct StreamKeys {
  std::vector<Key> streams[kNumRunStreams];
};

StreamKeys FourStreams() {
  StreamKeys out;
  for (Key k = -1000; k < -600; k += 3) out.streams[kStream4].push_back(k);
  std::reverse(out.streams[kStream4].begin(), out.streams[kStream4].end());
  for (Key k = -600; k < -300; k += 2) out.streams[kStream3].push_back(k);
  for (Key k = 100; k > -300; k -= 5) out.streams[kStream2].push_back(k);
  for (Key k = 100; k < 900; k += 4) out.streams[kStream1].push_back(k);
  return out;
}

TEST(FileRunSinkTest, SpansMatchPerRecordAppendsOnEveryStream) {
  // Small blocks and reverse files of 3 data pages of 8 records make the
  // spans cross writer flushes, pages and reverse-file boundaries.
  FileRunSinkOptions options;
  options.block_bytes = 128;
  options.reverse.pages_per_file = 4;
  options.reverse.page_bytes = 64;
  const StreamKeys keys = FourStreams();
  MemEnv record_env;
  FileRunSink record_sink(&record_env, "dir", "t", options);
  ASSERT_TWRS_OK(record_sink.BeginRun());
  for (int s = 0; s < kNumRunStreams; ++s) {
    for (Key k : keys.streams[s]) {
      ASSERT_TWRS_OK(record_sink.Append(static_cast<RunStream>(s), k));
    }
  }
  ASSERT_TWRS_OK(record_sink.EndRun());
  ASSERT_EQ(record_sink.runs().size(), 1u);
  const RunInfo& record = record_sink.runs()[0];
  ASSERT_EQ(record.segments.size(), 4u);

  for (size_t span : {1u, 5u, 8u, 17u, 1000u}) {
    MemEnv span_env;
    FileRunSink span_sink(&span_env, "dir", "t", options);
    ASSERT_TWRS_OK(span_sink.BeginRun());
    for (int s = 0; s < kNumRunStreams; ++s) {
      const std::vector<Key>& stream = keys.streams[s];
      for (size_t i = 0; i < stream.size(); i += span) {
        ASSERT_TWRS_OK(span_sink.AppendSorted(
            static_cast<RunStream>(s), stream.data() + i,
            std::min(span, stream.size() - i)));
      }
    }
    ASSERT_TWRS_OK(span_sink.EndRun());
    ASSERT_EQ(span_sink.runs().size(), 1u);
    const RunInfo& got = span_sink.runs()[0];
    EXPECT_EQ(got.length, record.length);
    EXPECT_EQ(got.min_key, record.min_key);
    EXPECT_EQ(got.max_key, record.max_key);
    ASSERT_EQ(got.segments.size(), record.segments.size());
    for (size_t i = 0; i < got.segments.size(); ++i) {
      const RunSegment& a = got.segments[i];
      const RunSegment& b = record.segments[i];
      EXPECT_EQ(a.path, b.path);
      EXPECT_EQ(a.count, b.count);
      ASSERT_EQ(a.num_files, b.num_files);
      std::vector<std::string> files = {a.path};
      if (a.reverse) {
        files.clear();
        for (uint64_t f = 0; f < a.num_files; ++f) {
          files.push_back(ReverseRunWriter::FileName(a.path, f));
        }
      }
      for (const std::string& file : files) {
        ASSERT_NE(span_env.FileContents(file), nullptr) << file;
        EXPECT_EQ(*span_env.FileContents(file),
                  *record_env.FileContents(file))
            << "span " << span << " " << file;
      }
    }
  }
}

TEST(FileRunSinkTest, SpansOutOfStreamOrderAreRejected) {
  // As Append does, a decreasing stream rejects a key above its last one.
  MemEnv env;
  FileRunSink sink(&env, "dir", "t");
  ASSERT_TWRS_OK(sink.BeginRun());
  const std::vector<Key> rising = {3, 4};
  EXPECT_TRUE(sink.AppendSorted(kStream4, rising.data(), rising.size())
                  .IsInvalidArgument());
  MemEnv env2;
  FileRunSink sink2(&env2, "dir", "t");
  ASSERT_TWRS_OK(sink2.BeginRun());
  ASSERT_TWRS_OK(sink2.Append(kStream2, 10));
  const std::vector<Key> above = {11, 2};
  EXPECT_TRUE(sink2.AppendSorted(kStream2, above.data(), above.size())
                  .IsInvalidArgument());
}

TEST(CollectingRunSinkTest, SpansOutOfStreamOrderAreRejected) {
  CollectingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  const std::vector<Key> up = {1, 5, 9};
  const std::vector<Key> down = {19, 15, 11};
  ASSERT_TWRS_OK(sink.AppendSorted(kStream3, up.data(), up.size()));
  ASSERT_TWRS_OK(sink.AppendSorted(kStream2, down.data(), down.size()));
  // Within the span and against the stream's last key, both directions.
  EXPECT_TRUE(sink.AppendSorted(kStream1, down.data(), down.size())
                  .IsInvalidArgument());
  EXPECT_TRUE(sink.AppendSorted(kStream4, up.data(), up.size())
                  .IsInvalidArgument());
  EXPECT_TRUE(sink.AppendSorted(kStream3, up.data(), up.size())
                  .IsInvalidArgument());
  EXPECT_TRUE(sink.AppendSorted(kStream2, down.data(), down.size())
                  .IsInvalidArgument());
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_EQ(sink.collected().size(), 1u);
  EXPECT_EQ(sink.collected()[0], std::vector<Key>({1, 5, 9, 11, 15, 19}));
}

// Records the size of every AppendSorted call on top of a
// CollectingRunSink, and fails every call once `fail` is set.
class CallSizeSink : public CollectingRunSink {
 public:
  Status AppendSorted(RunStream stream, const Key* keys, size_t n) override {
    calls.push_back(n);
    if (fail) return Status::IOError("injected");
    return CollectingRunSink::AppendSorted(stream, keys, n);
  }

  std::vector<size_t> calls;
  bool fail = false;
};

TEST(StagedRunStreamTest, ShortSpansReachTheSinkABlockAtATime) {
  constexpr size_t kCap = StagedRunStream::kCapacity;
  constexpr size_t kDirect = StagedRunStream::kDirectSpan;
  CallSizeSink sink;
  StagedRunStream stage(&sink, kStream1);
  ASSERT_TWRS_OK(sink.BeginRun());
  std::vector<Key> keys;
  for (size_t i = 0; i < kCap + 10; ++i) {
    keys.push_back(static_cast<Key>(i));
    ASSERT_TWRS_OK(stage.Append(&keys.back(), 1));
  }
  // A full buffer went out when the next key did not fit.
  EXPECT_EQ(sink.calls, std::vector<size_t>({kCap}));
  // A span of kDirect keys is staged; a longer one flushes the staging
  // and goes to the sink in its own call.
  std::vector<Key> span(kDirect + 1);
  for (size_t i = 0; i < span.size(); ++i) {
    span[i] = static_cast<Key>(kCap + 10 + i);
  }
  ASSERT_TWRS_OK(stage.Append(span.data(), kDirect));
  keys.insert(keys.end(), span.begin(), span.begin() + kDirect);
  EXPECT_EQ(sink.calls.size(), 1u);
  for (Key& k : span) k += kDirect;
  ASSERT_TWRS_OK(stage.Append(span.data(), span.size()));
  keys.insert(keys.end(), span.begin(), span.end());
  EXPECT_EQ(sink.calls,
            std::vector<size_t>({kCap, 10 + kDirect, kDirect + 1}));
  ASSERT_TWRS_OK(stage.Flush());  // nothing staged: no call
  EXPECT_EQ(sink.calls.size(), 3u);
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_EQ(sink.collected().size(), 1u);
  EXPECT_EQ(sink.collected()[0], keys);
}

TEST(StagedRunStreamTest, SinkErrorsReachTheCaller) {
  CallSizeSink sink;
  StagedRunStream stage(&sink, kStream4);
  ASSERT_TWRS_OK(sink.BeginRun());
  const Key key = 7;
  ASSERT_TWRS_OK(stage.Append(&key, 1));
  sink.fail = true;
  EXPECT_TRUE(stage.Flush().IsIOError());
  std::vector<Key> fill(StagedRunStream::kCapacity, 7);
  for (const Key& k : fill) ASSERT_TWRS_OK(stage.Append(&k, 1));
  EXPECT_TRUE(stage.Append(&key, 1).IsIOError());
  std::vector<Key> span(StagedRunStream::kDirectSpan + 1, 7);
  EXPECT_TRUE(stage.Append(span.data(), span.size()).IsIOError());
}

}  // namespace
}  // namespace twrs
