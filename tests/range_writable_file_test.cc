#include "io/range_writable_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/record_io.h"
#include "io/uring_env.h"
#include "obs/latency_histogram.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

using testing::MakeTempDir;

std::string Contents(MemEnv* env, const std::string& path) {
  const std::vector<uint8_t>* data = env->FileContents(path);
  EXPECT_NE(data, nullptr);
  if (data == nullptr) return "";
  return std::string(data->begin(), data->end());
}

/// Truncate-creates `path` with `bytes` as its contents, as the creator of
/// a shared output does before any range writer starts.
void CreateShared(Env* env, const std::string& path,
                  const std::string& bytes = "") {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env->NewRandomRWFile(path, &f));
  if (!bytes.empty()) ASSERT_TWRS_OK(f->WriteAt(0, bytes.data(), bytes.size()));
  ASSERT_TWRS_OK(f->Close());
}

MergeOutputRange Range(uint64_t offset, uint64_t length) {
  MergeOutputRange range;
  range.positioned = true;
  range.offset = offset;
  range.length = length;
  return range;
}

TEST(RangeWritableFileTest, FillsExactlyItsRange) {
  MemEnv env;
  CreateShared(&env, "out", "AAAABBBBCCCC");  // sentinels around the range
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(4, 4), &file));
  ASSERT_TWRS_OK(file->Append("xy", 2));
  ASSERT_TWRS_OK(file->Append("zw", 2));
  ASSERT_TWRS_OK(file->Close());
  ASSERT_TWRS_OK(file->Close());  // idempotent
  EXPECT_EQ(Contents(&env, "out"), "AAAAxyzwCCCC");
  EXPECT_FALSE(file->Append("x", 1).ok());
}

TEST(RangeWritableFileTest, ExtendsTheFileOnWrite) {
  MemEnv env;
  CreateShared(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(8, 4), &file));
  ASSERT_TWRS_OK(file->Append("TAIL", 4));
  ASSERT_TWRS_OK(file->Close());
  uint64_t size = 0;
  ASSERT_TWRS_OK(env.GetFileSize("out", &size));
  EXPECT_EQ(size, 12u);
  EXPECT_EQ(Contents(&env, "out").substr(8), "TAIL");
}

TEST(RangeWritableFileTest, WriteBeyondRangeFails) {
  MemEnv env;
  CreateShared(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(0, 4), &file));
  ASSERT_TWRS_OK(file->Append("1234", 4));
  Status s = file->Append("5", 1);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  uint64_t size = 0;
  ASSERT_TWRS_OK(env.GetFileSize("out", &size));
  EXPECT_EQ(size, 4u);  // the rejected byte never reached the file
}

TEST(RangeWritableFileTest, UnderfilledRangeIsCorruptionAtClose) {
  MemEnv env;
  CreateShared(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(0, 8), &file));
  ASSERT_TWRS_OK(file->Append("1234", 4));
  Status s = file->Close();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(RangeWritableFileTest, ZeroLengthRangeClosesClean) {
  MemEnv env;
  CreateShared(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(0, 0), &file));
  ASSERT_TWRS_OK(file->Close());
}

TEST(RangeWritableFileTest, MissingFileFailsToOpen) {
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  EXPECT_FALSE(
      NewRangeWritableFile(&env, "missing", Range(0, 4), &file).ok());
}

TEST(RangeWritableFileTest, AbandonedWriterReportsNothing) {
  MemEnv env;
  CreateShared(&env, "out");
  {
    // Destroyed mid-range, as on error-path unwinding: neither the range
    // file nor the record writer in front of it may report the underfill.
    std::unique_ptr<RecordWriter> writer;
    ASSERT_TWRS_OK(
        MakeRecordWriter(&env, "out", 64, &writer, nullptr, Range(0, 1024)));
    ASSERT_TWRS_OK(writer->Append(7));
  }
  {
    std::unique_ptr<WritableFile> range;
    ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(0, 1024), &range));
    ASSERT_TWRS_OK(range->Append("partial", 7));
  }
}

TEST(RangeWritableFileTest, ChunkedAppendsMatchOneAppend) {
  MemEnv env;
  std::string payload;
  for (int i = 0; i < 2000; ++i) payload += std::to_string(i * 7919) + "|";
  CreateShared(&env, "whole");
  CreateShared(&env, "chunked");
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TWRS_OK(NewRangeWritableFile(&env, "whole",
                                        Range(0, payload.size()), &file));
    ASSERT_TWRS_OK(file->Append(payload.data(), payload.size()));
    ASSERT_TWRS_OK(file->Close());
  }
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TWRS_OK(NewRangeWritableFile(&env, "chunked",
                                        Range(0, payload.size()), &file));
    size_t pos = 0;
    while (pos < payload.size()) {
      const size_t chunk = std::min<size_t>(37, payload.size() - pos);
      ASSERT_TWRS_OK(file->Append(payload.data() + pos, chunk));
      pos += chunk;
    }
    ASSERT_TWRS_OK(file->Close());
  }
  EXPECT_EQ(Contents(&env, "chunked"), Contents(&env, "whole"));
  EXPECT_EQ(Contents(&env, "chunked"), payload);
}

TEST(RangeWritableFileTest, RecordWriterUnderfillIsCorruptionAtFinish) {
  MemEnv env;
  CreateShared(&env, "out");
  std::unique_ptr<RecordWriter> writer;
  ASSERT_TWRS_OK(
      MakeRecordWriter(&env, "out", 64, &writer, nullptr, Range(0, 256)));
  for (Key k = 0; k < 25; ++k) ASSERT_TWRS_OK(writer->Append(k));
  Status s = writer->Finish();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// The contract the partitioned final merge rests on: several range
// writers over distinct handles of one file, concurrently filling disjoint
// ranges, produce exactly the concatenation of their payloads.
TEST(RangeWritableFileTest, ConcurrentDisjointRangesCompose) {
  for (int use_posix = 0; use_posix <= 1; ++use_posix) {
    MemEnv mem;
    PosixEnv posix;
    Env* env = use_posix ? static_cast<Env*>(&posix) : &mem;
    const std::string path =
        use_posix ? MakeTempDir() + "/out" : std::string("out");

    constexpr int kWriters = 8;
    constexpr size_t kBytesPerWriter = 64 * 1024 + 13;
    CreateShared(env, path);
    std::vector<std::thread> writers;
    std::vector<Status> results(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        std::unique_ptr<WritableFile> file;
        Status s = NewRangeWritableFile(
            env, path, Range(w * kBytesPerWriter, kBytesPerWriter), &file);
        if (!s.ok()) {
          results[w] = s;
          return;
        }
        const char byte = static_cast<char>('a' + w);
        std::vector<char> chunk(997, byte);
        size_t written = 0;
        while (s.ok() && written < kBytesPerWriter) {
          const size_t n =
              std::min(chunk.size(), kBytesPerWriter - written);
          s = file->Append(chunk.data(), n);
          written += n;
        }
        if (s.ok()) s = file->Close();
        results[w] = s;
      });
    }
    for (auto& t : writers) t.join();
    for (int w = 0; w < kWriters; ++w) {
      ASSERT_TWRS_OK(results[w]);
    }
    std::unique_ptr<SequentialFile> in;
    ASSERT_TWRS_OK(env->NewSequentialFile(path, &in));
    std::vector<char> got(kWriters * kBytesPerWriter);
    size_t read = 0;
    ASSERT_TWRS_OK(in->Read(got.data(), got.size(), &read));
    ASSERT_EQ(read, got.size());
    for (int w = 0; w < kWriters; ++w) {
      for (size_t i = 0; i < kBytesPerWriter; ++i) {
        ASSERT_EQ(got[w * kBytesPerWriter + i],
                  static_cast<char>('a' + w))
            << "writer " << w << " byte " << i;
      }
    }
  }
}

TEST(RangeWritableFileTest, RecordWriterWritesThroughARange) {
  MemEnv env;
  constexpr Key kRecords = 100;
  CreateShared(&env, "out", std::string(kRecords * kRecordBytes, '\0'));
  // Two halves of one record file, upper first, written through the
  // factory's positioned mode.
  for (int half = 1; half >= 0; --half) {
    std::unique_ptr<RecordWriter> writer;
    ASSERT_TWRS_OK(MakeRecordWriter(
        &env, "out", 64, &writer, nullptr,
        Range(half * (kRecords / 2) * kRecordBytes,
              (kRecords / 2) * kRecordBytes)));
    for (Key k = half * (kRecords / 2); k < (half + 1) * (kRecords / 2);
         ++k) {
      ASSERT_TWRS_OK(writer->Append(k));
    }
    ASSERT_TWRS_OK(writer->Finish());
  }
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  ASSERT_EQ(keys.size(), kRecords);
  for (Key k = 0; k < kRecords; ++k) EXPECT_EQ(keys[k], k);
}

TEST(RangeWritableFileTest, FactoryTimesEveryBlockWrite) {
  // With a histogram, each block write that reaches the file is timed, on
  // a created file and on a positioned range alike: 1000 records in
  // 64-record blocks are 16 writes.
  MemEnv env;
  CreateShared(&env, "ranged");
  const MergeOutputRange ranges[] = {MergeOutputRange(),
                                     Range(0, 1000 * kRecordBytes)};
  for (const MergeOutputRange& range : ranges) {
    const std::string path = range.positioned ? "ranged" : "created";
    LatencyHistogram histogram;
    std::unique_ptr<RecordWriter> writer;
    ASSERT_TWRS_OK(MakeRecordWriter(&env, path, 64 * kRecordBytes, &writer,
                                    &histogram, range));
    for (Key k = 0; k < 1000; ++k) ASSERT_TWRS_OK(writer->Append(k));
    ASSERT_TWRS_OK(writer->Finish());
    EXPECT_EQ(histogram.TakeSnapshot().count, 16u) << path;
    std::vector<Key> keys;
    ASSERT_TWRS_OK(ReadAllRecords(&env, path, &keys));
    ASSERT_EQ(keys.size(), 1000u) << path;
    for (Key k = 0; k < 1000; ++k) ASSERT_EQ(keys[k], k) << path;
  }
}

TEST(RangeWritableFileTest, UringBackendRoundTripsThroughTheFactory) {
  if (!IoUringEnv::IsSupported()) {
    GTEST_SKIP() << "io_uring unavailable: "
                 << IoUringEnv::UnsupportedReason();
  }
  // End to end on the io_uring backend, appended and positioned: the bytes
  // must match a plain posix read of the same files.
  IoUringEnv env;
  PosixEnv posix;
  const std::string dir = MakeTempDir();
  ASSERT_TWRS_OK(env.CreateDirIfMissing(dir));
  std::vector<Key> keys(20000);
  std::iota(keys.begin(), keys.end(), 1);
  const std::string ranged = dir + "/ranged";
  CreateShared(&env, ranged);
  const MergeOutputRange ranges[] = {
      MergeOutputRange(), Range(0, keys.size() * kRecordBytes)};
  for (const MergeOutputRange& range : ranges) {
    const std::string path = range.positioned ? ranged : dir + "/created";
    std::unique_ptr<RecordWriter> writer;
    ASSERT_TWRS_OK(MakeRecordWriter(&env, path, 512, &writer, nullptr, range));
    for (Key k : keys) ASSERT_TWRS_OK(writer->Append(k));
    ASSERT_TWRS_OK(writer->Finish());

    std::vector<Key> via_uring, via_posix;
    ASSERT_TWRS_OK(ReadAllRecords(&env, path, &via_uring));
    ASSERT_TWRS_OK(ReadAllRecords(&posix, path, &via_posix));
    EXPECT_TRUE(via_uring == keys) << path;
    EXPECT_TRUE(via_posix == keys) << "backends disagree on " << path;
  }
}

}  // namespace
}  // namespace twrs
