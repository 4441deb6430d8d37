#include "io/range_writable_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/async_io.h"
#include "exec/thread_pool.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/record_io.h"
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
  ThreadPool pool(1);
  {
    // Destroyed mid-range, as on error-path unwinding: neither the range
    // file nor the double buffer in front of it may report the underfill.
    std::unique_ptr<WritableFile> range;
    ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(0, 1024), &range));
    AsyncWritableFile file(std::move(range), &pool, 64);
    ASSERT_TWRS_OK(file.Append("partial", 7));
  }
  {
    std::unique_ptr<WritableFile> range;
    ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(0, 1024), &range));
    ASSERT_TWRS_OK(range->Append("partial", 7));
  }
}

TEST(RangeWritableFileTest, DoubleBufferedFlushMatchesSyncBytes) {
  MemEnv env;
  ThreadPool pool(2);
  std::string payload;
  for (int i = 0; i < 2000; ++i) payload += std::to_string(i * 7919) + "|";
  CreateShared(&env, "sync");
  CreateShared(&env, "async");
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TWRS_OK(NewRangeWritableFile(&env, "sync",
                                        Range(0, payload.size()), &file));
    ASSERT_TWRS_OK(file->Append(payload.data(), payload.size()));
    ASSERT_TWRS_OK(file->Close());
  }
  {
    std::unique_ptr<WritableFile> range;
    ASSERT_TWRS_OK(NewRangeWritableFile(&env, "async",
                                        Range(0, payload.size()), &range));
    // 96-byte halves force hundreds of rotations over the payload.
    AsyncWritableFile file(std::move(range), &pool, 96);
    size_t pos = 0;
    while (pos < payload.size()) {
      const size_t chunk = std::min<size_t>(37, payload.size() - pos);
      ASSERT_TWRS_OK(file.Append(payload.data() + pos, chunk));
      pos += chunk;
    }
    ASSERT_TWRS_OK(file.Close());
  }
  EXPECT_EQ(Contents(&env, "async"), Contents(&env, "sync"));
  EXPECT_EQ(Contents(&env, "async"), payload);
}

TEST(RangeWritableFileTest, DoubleBufferedUnderfillIsCorruptionAtClose) {
  MemEnv env;
  CreateShared(&env, "out");
  ThreadPool pool(1);
  std::unique_ptr<WritableFile> range;
  ASSERT_TWRS_OK(NewRangeWritableFile(&env, "out", Range(0, 256), &range));
  AsyncWritableFile file(std::move(range), &pool, 64);
  ASSERT_TWRS_OK(file.Append(std::string(200, 'x').data(), 200));
  Status s = file.Close();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// The contract the partitioned final merge rests on: several
// double-buffered range writers over
// distinct handles of one file, concurrently filling disjoint ranges,
// produce exactly the concatenation of their payloads.
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
    ThreadPool flush_pool(4);
    std::vector<std::thread> writers;
    std::vector<Status> results(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        std::unique_ptr<WritableFile> range;
        Status s = NewRangeWritableFile(
            env, path, Range(w * kBytesPerWriter, kBytesPerWriter), &range);
        if (!s.ok()) {
          results[w] = s;
          return;
        }
        AsyncWritableFile file(std::move(range), &flush_pool, 1024);
        const char byte = static_cast<char>('a' + w);
        std::vector<char> chunk(997, byte);
        size_t written = 0;
        while (s.ok() && written < kBytesPerWriter) {
          const size_t n =
              std::min(chunk.size(), kBytesPerWriter - written);
          s = file.Append(chunk.data(), n);
          written += n;
        }
        if (s.ok()) s = file.Close();
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
  ThreadPool pool(2);
  constexpr Key kRecords = 100;
  CreateShared(&env, "out", std::string(kRecords * kRecordBytes, '\0'));
  // Two halves of one record file, written through the factory: the lower
  // synchronously, the upper double-buffered on the pool.
  for (int half = 0; half < 2; ++half) {
    std::unique_ptr<RecordWriter> writer;
    ASSERT_TWRS_OK(MakeAsyncRecordWriter(
        &env, "out", 64, half == 0 ? nullptr : &pool, &writer, nullptr,
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

}  // namespace
}  // namespace twrs
