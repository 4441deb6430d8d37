#include "io/record_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "io/mem_env.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

TEST(RecordCodecTest, RoundTripsExtremes) {
  uint8_t buf[kRecordBytes];
  for (Key k : {Key{0}, Key{1}, Key{-1}, Key{42},
                std::numeric_limits<Key>::min(),
                std::numeric_limits<Key>::max()}) {
    EncodeKey(k, buf);
    EXPECT_EQ(DecodeKey(buf), k);
  }
}

TEST(RecordCodecTest, LittleEndianLayout) {
  uint8_t buf[kRecordBytes];
  EncodeKey(0x0102030405060708LL, buf);
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(buf[7], 0x01);
}

// Buffer boundary behaviour must not depend on the block size.
class RecordIoTest : public ::testing::TestWithParam<size_t> {
 protected:
  MemEnv env_;
};

TEST_P(RecordIoTest, RoundTripManyRecords) {
  const size_t block = GetParam();
  Random rng(3);
  std::vector<Key> keys(1000);
  for (Key& k : keys) k = static_cast<Key>(rng.Next());

  RecordWriter writer(&env_, "f", block);
  ASSERT_TWRS_OK(writer.status());
  for (Key k : keys) ASSERT_TWRS_OK(writer.Append(k));
  ASSERT_TWRS_OK(writer.Finish());
  EXPECT_EQ(writer.count(), keys.size());

  RecordReader reader(&env_, "f", block);
  ASSERT_TWRS_OK(reader.status());
  for (Key expected : keys) {
    Key k;
    bool eof;
    ASSERT_TWRS_OK(reader.Next(&k, &eof));
    ASSERT_FALSE(eof);
    EXPECT_EQ(k, expected);
  }
  Key k;
  bool eof;
  ASSERT_TWRS_OK(reader.Next(&k, &eof));
  EXPECT_TRUE(eof);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, RecordIoTest,
                         ::testing::Values(8, 24, 64, 4096, 1 << 20));

TEST(RecordIoBasicTest, EmptyFile) {
  MemEnv env;
  RecordWriter writer(&env, "f");
  ASSERT_TWRS_OK(writer.status());
  ASSERT_TWRS_OK(writer.Finish());
  RecordReader reader(&env, "f");
  Key k;
  bool eof;
  ASSERT_TWRS_OK(reader.Next(&k, &eof));
  EXPECT_TRUE(eof);
}

TEST(RecordIoBasicTest, FinishIsIdempotent) {
  MemEnv env;
  RecordWriter writer(&env, "f");
  ASSERT_TWRS_OK(writer.Append(1));
  ASSERT_TWRS_OK(writer.Finish());
  ASSERT_TWRS_OK(writer.Finish());
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "f", &keys));
  EXPECT_EQ(keys, std::vector<Key>({1}));
}

TEST(RecordIoBasicTest, DestructorFlushesUnfinishedWriter) {
  MemEnv env;
  {
    RecordWriter writer(&env, "f");
    ASSERT_TWRS_OK(writer.Append(7));
    // no Finish(): destructor must flush
  }
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "f", &keys));
  EXPECT_EQ(keys, std::vector<Key>({7}));
}

TEST(RecordIoBasicTest, TruncatedFileIsCorruption) {
  MemEnv env;
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env.NewWritableFile("f", &w));
  ASSERT_TWRS_OK(w->Append("abc", 3));  // not a multiple of 8
  ASSERT_TWRS_OK(w->Close());
  RecordReader reader(&env, "f");
  Key k;
  bool eof;
  Status s = reader.Next(&k, &eof);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(RecordIoBasicTest, WriteAllReadAllHelpers) {
  MemEnv env;
  std::vector<Key> keys = {3, 1, 4, 1, 5, -9};
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", keys));
  std::vector<Key> back;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "f", &back));
  EXPECT_EQ(back, keys);
}

TEST(RecordIoBasicTest, MissingFileReportsOnConstruction) {
  MemEnv env;
  RecordReader reader(&env, "missing");
  EXPECT_FALSE(reader.status().ok());
  Key k;
  bool eof;
  EXPECT_FALSE(reader.Next(&k, &eof).ok());
}

/// SequentialFile that serves `total` bytes, then fails the Read that
/// reaches past them as a whole — as PosixEnv's looping read does, it
/// never hands back a short read, which would mean EOF.
class FailingSequentialFile : public SequentialFile {
 public:
  explicit FailingSequentialFile(size_t total) : remaining_(total) {}

  Status Read(void* out, size_t n, size_t* bytes_read) override {
    *bytes_read = 0;
    if (n > remaining_) return Status::IOError("injected read failure");
    std::memset(out, 0xAB, n);
    remaining_ -= n;
    *bytes_read = n;
    return Status::OK();
  }

  Status Skip(uint64_t) override { return Status::OK(); }

 private:
  size_t remaining_;
};

// A record stream whose file errors mid-stream must FAIL, not silently
// end. The reader's 768-byte buffer is misaligned with the 2048 good
// bytes, so its third refill reaches into the fault holding a partial
// block — exactly the case a short-read-as-EOF bug would hide.
TEST(RecordIoBasicTest, RecordReaderSeesMidStreamError) {
  RecordReader reader(std::make_unique<FailingSequentialFile>(2048), 768);
  ASSERT_TWRS_OK(reader.status());
  uint64_t records = 0;
  Status s;
  for (;;) {
    Key k;
    bool eof = false;
    s = reader.Next(&k, &eof);
    if (!s.ok() || eof) break;
    ++records;
  }
  EXPECT_TRUE(s.IsIOError()) << "mid-stream error must not read as EOF ("
                             << records << " records, " << s.ToString()
                             << ")";
  EXPECT_EQ(records, 2 * 768 / kRecordBytes);
}

}  // namespace
}  // namespace twrs
