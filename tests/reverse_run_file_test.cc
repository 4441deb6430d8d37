#include "io/reverse_run_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "io/mem_env.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

std::vector<Key> ReadBack(Env* env, const std::string& base,
                          uint64_t num_files = 0) {
  ReverseRunReader reader(env, base, num_files);
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  std::vector<Key> out;
  for (;;) {
    Key key;
    size_t got = 0;
    Status s = reader.Read(&key, 1, &got);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok() || got == 0) break;
    out.push_back(key);
  }
  return out;
}

// Reads the stream back through Read, `max` records per call, with a
// reader buffer of `buffer_bytes`. A batch comes from one buffered block.
std::vector<Key> ReadBackBatched(Env* env, const std::string& base,
                                 size_t max, size_t buffer_bytes) {
  ReverseRunReader reader(env, base, 0, buffer_bytes);
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  std::vector<Key> out;
  std::vector<Key> batch(max);
  for (;;) {
    size_t got = 0;
    Status s = reader.Read(batch.data(), max, &got);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_LE(got * kRecordBytes, buffer_bytes);
    if (!s.ok() || got == 0) break;
    out.insert(out.end(), batch.begin(), batch.begin() + got);
  }
  return out;
}

// The format must behave identically across page geometries, including ones
// that force multiple physical files and partial final pages.
struct Geometry {
  uint64_t pages_per_file;
  uint64_t page_bytes;
  uint64_t records;
};

class ReverseRunFileTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(ReverseRunFileTest, DecreasingStreamReadsBackAscending) {
  const Geometry geometry = GetParam();
  MemEnv env;
  ReverseRunFileOptions options;
  options.pages_per_file = geometry.pages_per_file;
  options.page_bytes = geometry.page_bytes;

  std::vector<Key> keys(geometry.records);
  for (uint64_t i = 0; i < geometry.records; ++i) {
    keys[i] = static_cast<Key>(geometry.records - i) * 10;  // decreasing
  }
  ReverseRunWriter writer(&env, "s", options);
  ASSERT_TWRS_OK(writer.status());
  for (Key k : keys) ASSERT_TWRS_OK(writer.Append(k));
  ASSERT_TWRS_OK(writer.Finish());
  EXPECT_EQ(writer.count(), geometry.records);

  std::vector<Key> expected = keys;
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(ReadBack(&env, "s", writer.num_files()), expected);
  // Self-describing: the reader can discover the file count from file 0.
  EXPECT_EQ(ReadBack(&env, "s", 0), expected);
  // The batch path yields the same sequence at any batch and buffer size.
  for (size_t max : {1u, 3u, 8u, 1000u}) {
    for (size_t buffer_bytes : {64u, 200u, 64u * 1024u}) {
      EXPECT_EQ(ReadBackBatched(&env, "s", max, buffer_bytes), expected)
          << "max " << max << " buffer " << buffer_bytes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReverseRunFileTest,
    ::testing::Values(Geometry{2, 64, 1},        // tiny file, header + 1 page
                      Geometry{2, 64, 7},        // partial page
                      Geometry{2, 64, 8},        // exact page
                      Geometry{2, 64, 9},        // spills into second file
                      Geometry{4, 64, 100},      // many files
                      Geometry{4, 128, 48},      // exact multi-file boundary
                      Geometry{1024, 4096, 1000}));  // single large file

TEST(ReverseRunFileBasicTest, EmptyStreamCreatesNoFiles) {
  MemEnv env;
  ReverseRunWriter writer(&env, "s");
  ASSERT_TWRS_OK(writer.Finish());
  EXPECT_EQ(writer.num_files(), 0u);
  EXPECT_EQ(env.FileCount(), 0u);
  EXPECT_TRUE(ReadBack(&env, "s", 0).empty());
}

TEST(ReverseRunFileBasicTest, DuplicatesAreAllowed) {
  MemEnv env;
  ReverseRunFileOptions options;
  options.pages_per_file = 2;
  options.page_bytes = 64;
  ReverseRunWriter writer(&env, "s", options);
  for (Key k : {9, 9, 5, 5, 5, 1}) ASSERT_TWRS_OK(writer.Append(k));
  ASSERT_TWRS_OK(writer.Finish());
  EXPECT_EQ(ReadBack(&env, "s"), std::vector<Key>({1, 5, 5, 5, 9, 9}));
}

TEST(ReverseRunFileBasicTest, IncreasingKeyIsRejected) {
  MemEnv env;
  ReverseRunWriter writer(&env, "s");
  ASSERT_TWRS_OK(writer.Append(5));
  Status s = writer.Append(6);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// Appends `keys` through AppendBatch in consecutive spans of `span`
// records.
Status AppendInSpans(ReverseRunWriter* writer, const std::vector<Key>& keys,
                     size_t span) {
  for (size_t i = 0; i < keys.size(); i += span) {
    TWRS_RETURN_IF_ERROR(writer->AppendBatch(
        keys.data() + i, std::min(span, keys.size() - i)));
  }
  return Status::OK();
}

TEST(ReverseRunFileBasicTest, AppendBatchWritesTheBytesOfAppend) {
  // 8 records a page and 3 data pages a file: spans of every length cross
  // page and file boundaries at every offset.
  ReverseRunFileOptions options;
  options.pages_per_file = 4;
  options.page_bytes = 64;
  std::vector<Key> keys;
  for (Key k = 500; k > -500; k -= 7) keys.push_back(k);
  keys.push_back(keys.back());  // a duplicate
  MemEnv record_env;
  ReverseRunWriter record_writer(&record_env, "s", options);
  for (Key k : keys) ASSERT_TWRS_OK(record_writer.Append(k));
  ASSERT_TWRS_OK(record_writer.Finish());
  ASSERT_GT(record_writer.num_files(), 2u);
  for (size_t span : {1u, 3u, 8u, 13u, 24u, 1000u}) {
    MemEnv span_env;
    ReverseRunWriter span_writer(&span_env, "s", options);
    ASSERT_TWRS_OK(AppendInSpans(&span_writer, keys, span));
    ASSERT_TWRS_OK(span_writer.Finish());
    EXPECT_EQ(span_writer.count(), record_writer.count());
    ASSERT_EQ(span_writer.num_files(), record_writer.num_files());
    for (uint64_t f = 0; f < record_writer.num_files(); ++f) {
      const std::string name = ReverseRunWriter::FileName("s", f);
      ASSERT_NE(span_env.FileContents(name), nullptr);
      EXPECT_EQ(*span_env.FileContents(name), *record_env.FileContents(name))
          << "span " << span << " file " << f;
    }
  }
}

TEST(ReverseRunFileBasicTest, AppendBatchRejectsOrderViolations) {
  MemEnv env;
  ReverseRunWriter inside(&env, "a");
  const std::vector<Key> rising = {9, 7, 8};
  EXPECT_TRUE(inside.AppendBatch(rising.data(), rising.size())
                  .IsInvalidArgument());
  EXPECT_EQ(inside.count(), 0u);  // nothing of the bad span was written

  ReverseRunWriter across(&env, "b");
  ASSERT_TWRS_OK(across.Append(5));
  const std::vector<Key> above = {6, 1};
  EXPECT_TRUE(across.AppendBatch(above.data(), above.size())
                  .IsInvalidArgument());
  EXPECT_EQ(across.count(), 1u);
}

TEST(ReverseRunFileBasicTest, NegativeKeysRoundTrip) {
  MemEnv env;
  ReverseRunFileOptions options;
  options.pages_per_file = 2;
  options.page_bytes = 64;
  ReverseRunWriter writer(&env, "s", options);
  for (Key k : {100, 0, -5, -1000}) ASSERT_TWRS_OK(writer.Append(k));
  ASSERT_TWRS_OK(writer.Finish());
  EXPECT_EQ(ReadBack(&env, "s"), std::vector<Key>({-1000, -5, 0, 100}));
}

TEST(ReverseRunFileBasicTest, FileNamesAreIndexed) {
  EXPECT_EQ(ReverseRunWriter::FileName("dir/stream", 0), "dir/stream.0");
  EXPECT_EQ(ReverseRunWriter::FileName("dir/stream", 12), "dir/stream.12");
}

TEST(ReverseRunFileBasicTest, InvalidOptionsAreRejected) {
  MemEnv env;
  ReverseRunFileOptions bad_page;
  bad_page.page_bytes = 60;  // not a multiple of the record size
  ReverseRunWriter w1(&env, "s", bad_page);
  EXPECT_TRUE(w1.status().IsInvalidArgument());

  ReverseRunFileOptions bad_pages;
  bad_pages.pages_per_file = 1;  // no room for data beside the header
  ReverseRunWriter w2(&env, "s", bad_pages);
  EXPECT_TRUE(w2.status().IsInvalidArgument());
}

TEST(ReverseRunFileBasicTest, UnfinishedStreamIsDetected) {
  MemEnv env;
  ReverseRunFileOptions options;
  options.pages_per_file = 2;
  options.page_bytes = 64;
  {
    ReverseRunWriter writer(&env, "s", options);
    // Write enough to complete file 0 but never call Finish(), so the
    // total-files patch is missing. (Destructor calls Finish; emulate the
    // crash by corrupting the field afterwards.)
    for (int i = 20; i > 0; --i) ASSERT_TWRS_OK(writer.Append(i));
    ASSERT_TWRS_OK(writer.Finish());
  }
  // Zero out the total-files header field of file 0.
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env.ReopenRandomRWFile("s.0", &f));
  const uint8_t zeros[8] = {0};
  ASSERT_TWRS_OK(f->WriteAt(56, zeros, 8));
  ASSERT_TWRS_OK(f->Close());
  ReverseRunReader reader(&env, "s", 0);
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
}

TEST(ReverseRunFileBasicTest, RandomDecreasingStreamsProperty) {
  Random rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    MemEnv env;
    ReverseRunFileOptions options;
    options.pages_per_file = 2 + rng.Uniform(4);
    options.page_bytes = 64 * (1 + rng.Uniform(4));
    const int n = static_cast<int>(rng.Uniform(200));
    std::vector<Key> keys(n);
    Key current = 1 << 20;
    for (Key& k : keys) {
      current -= static_cast<Key>(rng.Uniform(100));  // non-increasing
      k = current;
    }
    ReverseRunWriter writer(&env, "s", options);
    for (Key k : keys) ASSERT_TWRS_OK(writer.Append(k));
    ASSERT_TWRS_OK(writer.Finish());
    std::vector<Key> expected = keys;
    std::reverse(expected.begin(), expected.end());
    EXPECT_EQ(ReadBack(&env, "s"), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace twrs
