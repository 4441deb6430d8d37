#include "exec/async_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "exec/thread_pool.h"
#include "io/mem_env.h"
#include "obs/latency_histogram.h"
#include "io/posix_env.h"
#include "io/record_io.h"
#include "io/uring_env.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

std::vector<uint8_t> TestBytes(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<uint8_t>(i * 31 + 7);
  return bytes;
}

/// WritableFile that fails every Append after the first `ok_appends`.
class FailingWritableFile : public WritableFile {
 public:
  explicit FailingWritableFile(int ok_appends) : ok_appends_(ok_appends) {}

  Status Append(const void*, size_t) override {
    if (ok_appends_-- > 0) return Status::OK();
    return Status::IOError("injected append failure");
  }

  Status Close() override { return Status::OK(); }

 private:
  int ok_appends_;
};

/// SequentialFile that serves `total` bytes then fails the next Read.
class FailingSequentialFile : public SequentialFile {
 public:
  explicit FailingSequentialFile(size_t total) : remaining_(total) {}

  Status Read(void* out, size_t n, size_t* bytes_read) override {
    if (remaining_ == 0) return Status::IOError("injected read failure");
    const size_t take = std::min(n, remaining_);
    std::memset(out, 0xAB, take);
    remaining_ -= take;
    *bytes_read = take;
    return Status::OK();
  }

  Status Skip(uint64_t) override { return Status::OK(); }

 private:
  size_t remaining_;
};

// ------------------------------------------------------- AsyncWritableFile

TEST(AsyncWritableFileTest, BytesMatchSynchronousWrite) {
  MemEnv env;
  ThreadPool pool(2);
  const std::vector<uint8_t> bytes = TestBytes(100000);

  ASSERT_TWRS_OK([&] {
    std::unique_ptr<WritableFile> base;
    TWRS_RETURN_IF_ERROR(env.NewWritableFile("async", &base));
    // A small buffer forces many background flushes.
    AsyncWritableFile file(std::move(base), &pool, 1024);
    size_t pos = 0;
    // Varying append sizes exercise the chunking loop.
    for (size_t step = 1; pos < bytes.size(); step = step * 2 + 1) {
      const size_t n = std::min(step, bytes.size() - pos);
      TWRS_RETURN_IF_ERROR(file.Append(bytes.data() + pos, n));
      pos += n;
    }
    return file.Close();
  }());

  const std::vector<uint8_t>* contents = env.FileContents("async");
  ASSERT_NE(contents, nullptr);
  EXPECT_TRUE(*contents == bytes);
}

TEST(AsyncWritableFileTest, AppendLargerThanBufferWorks) {
  MemEnv env;
  ThreadPool pool(2);
  const std::vector<uint8_t> bytes = TestBytes(64 * 1024);
  std::unique_ptr<WritableFile> base;
  ASSERT_TWRS_OK(env.NewWritableFile("big", &base));
  AsyncWritableFile file(std::move(base), &pool, 512);
  ASSERT_TWRS_OK(file.Append(bytes.data(), bytes.size()));
  ASSERT_TWRS_OK(file.Close());
  const std::vector<uint8_t>* contents = env.FileContents("big");
  ASSERT_NE(contents, nullptr);
  EXPECT_TRUE(*contents == bytes);
}

TEST(AsyncWritableFileTest, NullPoolIsSynchronousPassThrough) {
  MemEnv env;
  const std::vector<uint8_t> bytes = TestBytes(4096);
  std::unique_ptr<WritableFile> base;
  ASSERT_TWRS_OK(env.NewWritableFile("sync", &base));
  AsyncWritableFile file(std::move(base), nullptr);
  ASSERT_TWRS_OK(file.Append(bytes.data(), bytes.size()));
  ASSERT_TWRS_OK(file.Close());
  const std::vector<uint8_t>* contents = env.FileContents("sync");
  ASSERT_NE(contents, nullptr);
  EXPECT_TRUE(*contents == bytes);
}

TEST(AsyncWritableFileTest, BackgroundAppendFailurePropagates) {
  ThreadPool pool(1);
  AsyncWritableFile file(std::make_unique<FailingWritableFile>(0), &pool,
                         256);
  const std::vector<uint8_t> bytes = TestBytes(256 * 64);
  // The failing flush surfaces on a later rotation or at the latest on
  // Close; every call after that must keep returning the error.
  Status s;
  for (size_t i = 0; i < 64 && s.ok(); ++i) {
    s = file.Append(bytes.data() + i * 256, 256);
  }
  if (s.ok()) s = file.Close();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(file.Append(bytes.data(), 1).IsIOError());
  EXPECT_TRUE(file.Close().IsIOError());
}

TEST(AsyncWritableFileTest, CloseIsIdempotent) {
  MemEnv env;
  ThreadPool pool(1);
  std::unique_ptr<WritableFile> base;
  ASSERT_TWRS_OK(env.NewWritableFile("idem", &base));
  AsyncWritableFile file(std::move(base), &pool);
  ASSERT_TWRS_OK(file.Append("abc", 3));
  ASSERT_TWRS_OK(file.Close());
  ASSERT_TWRS_OK(file.Close());
  const std::vector<uint8_t>* contents = env.FileContents("idem");
  ASSERT_NE(contents, nullptr);
  EXPECT_EQ(contents->size(), 3u);
}

// ------------------------------------------------ PrefetchingSequentialFile

TEST(PrefetchingSequentialFileTest, ReadsEntireFile) {
  MemEnv env;
  const std::vector<uint8_t> bytes = TestBytes(100000);
  {
    std::unique_ptr<WritableFile> w;
    ASSERT_TWRS_OK(env.NewWritableFile("f", &w));
    ASSERT_TWRS_OK(w->Append(bytes.data(), bytes.size()));
    ASSERT_TWRS_OK(w->Close());
  }
  std::unique_ptr<SequentialFile> base;
  ASSERT_TWRS_OK(env.NewSequentialFile("f", &base));
  PrefetchingSequentialFile file(std::move(base), 1024, 4);
  std::vector<uint8_t> out;
  uint8_t chunk[777];
  for (;;) {
    size_t got = 0;
    ASSERT_TWRS_OK(file.Read(chunk, sizeof(chunk), &got));
    out.insert(out.end(), chunk, chunk + got);
    if (got < sizeof(chunk)) break;
  }
  EXPECT_TRUE(out == bytes);
}

TEST(PrefetchingSequentialFileTest, ReadAfterEofReturnsZero) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {1, 2, 3}));
  std::unique_ptr<SequentialFile> base;
  ASSERT_TWRS_OK(env.NewSequentialFile("f", &base));
  PrefetchingSequentialFile file(std::move(base), 64, 2);
  std::vector<uint8_t> buf(1 << 16);
  size_t got = 0;
  ASSERT_TWRS_OK(file.Read(buf.data(), buf.size(), &got));
  EXPECT_EQ(got, 3 * kRecordBytes);
  ASSERT_TWRS_OK(file.Read(buf.data(), buf.size(), &got));
  EXPECT_EQ(got, 0u);
}

TEST(PrefetchingSequentialFileTest, SkipConsumesBytes) {
  MemEnv env;
  const std::vector<uint8_t> bytes = TestBytes(10000);
  {
    std::unique_ptr<WritableFile> w;
    ASSERT_TWRS_OK(env.NewWritableFile("f", &w));
    ASSERT_TWRS_OK(w->Append(bytes.data(), bytes.size()));
    ASSERT_TWRS_OK(w->Close());
  }
  std::unique_ptr<SequentialFile> base;
  ASSERT_TWRS_OK(env.NewSequentialFile("f", &base));
  PrefetchingSequentialFile file(std::move(base), 512, 3);
  ASSERT_TWRS_OK(file.Skip(5000));
  uint8_t b = 0;
  size_t got = 0;
  ASSERT_TWRS_OK(file.Read(&b, 1, &got));
  ASSERT_EQ(got, 1u);
  EXPECT_EQ(b, bytes[5000]);
  // Skipping past EOF is a no-op, matching the MemEnv base behaviour.
  ASSERT_TWRS_OK(file.Skip(1 << 20));
  ASSERT_TWRS_OK(file.Read(&b, 1, &got));
  EXPECT_EQ(got, 0u);
}

TEST(PrefetchingSequentialFileTest, ErrorPropagatesAfterPrefetchedBytes) {
  // 2048 good bytes (a whole number of 512-byte blocks, so the pump only
  // hits the failure after them), then a failing read. Every full 300-byte
  // read before the error must succeed (6 x 300 = 1800); the first read
  // that cannot be served entirely from pre-error blocks returns the error
  // instead of a short read, which the SequentialFile contract would make
  // look like EOF.
  PrefetchingSequentialFile file(
      std::make_unique<FailingSequentialFile>(2048), 512, 2);
  std::vector<uint8_t> buf(100000);
  size_t total = 0;
  Status s;
  for (;;) {
    size_t got = 0;
    s = file.Read(buf.data(), 300, &got);
    if (!s.ok()) break;
    ASSERT_EQ(got, 300u) << "short read would read as EOF";
    total += got;
    ASSERT_LT(total, buf.size());
  }
  EXPECT_EQ(total, 1800u);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // Error is sticky.
  size_t got = 0;
  EXPECT_TRUE(file.Read(buf.data(), 1, &got).IsIOError());
}

// The regression the Read contract fix guards against: a record stream
// whose reader drains through the adapter must FAIL — not silently end —
// when the underlying file errors mid-stream. 2048 good bytes keep the
// error on a 512-byte prefetch block boundary (a short read from the base
// would legitimately mean EOF); the reader's 768-byte buffer is misaligned
// with the prefetch blocks, so its final Next crosses into the error with
// a partial block — exactly the case a short-read-as-EOF bug would hide.
TEST(PrefetchingSequentialFileTest, RecordReaderSeesMidStreamError) {
  RecordReader reader(std::make_unique<PrefetchingSequentialFile>(
                          std::make_unique<FailingSequentialFile>(2048),
                          512, 2),
                      768);
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
}

TEST(PrefetchingSequentialFileTest, DestructorStopsPumpEarly) {
  MemEnv env;
  const std::vector<uint8_t> bytes = TestBytes(1 << 20);
  {
    std::unique_ptr<WritableFile> w;
    ASSERT_TWRS_OK(env.NewWritableFile("f", &w));
    ASSERT_TWRS_OK(w->Append(bytes.data(), bytes.size()));
    ASSERT_TWRS_OK(w->Close());
  }
  std::unique_ptr<SequentialFile> base;
  ASSERT_TWRS_OK(env.NewSequentialFile("f", &base));
  {
    PrefetchingSequentialFile file(std::move(base), 256, 2);
    uint8_t b;
    size_t got = 0;
    ASSERT_TWRS_OK(file.Read(&b, 1, &got));
    EXPECT_EQ(got, 1u);
    // Most of the file is unread; the destructor must not hang.
  }
}

// ------------------------------------------- integration through RecordIO

TEST(AsyncIoIntegrationTest, RecordRoundTripThroughBothAdapters) {
  MemEnv env;
  ThreadPool pool(2);
  std::vector<Key> keys(20000);
  std::iota(keys.begin(), keys.end(), 1);

  {
    std::unique_ptr<WritableFile> base;
    ASSERT_TWRS_OK(env.NewWritableFile("records", &base));
    RecordWriter writer(
        std::make_unique<AsyncWritableFile>(std::move(base), &pool, 2048),
        512);
    ASSERT_TWRS_OK(writer.status());
    for (Key k : keys) ASSERT_TWRS_OK(writer.Append(k));
    ASSERT_TWRS_OK(writer.Finish());
  }
  {
    std::unique_ptr<SequentialFile> base;
    ASSERT_TWRS_OK(env.NewSequentialFile("records", &base));
    RecordReader reader(std::make_unique<PrefetchingSequentialFile>(
                            std::move(base), 512, 4),
                        512);
    ASSERT_TWRS_OK(reader.status());
    for (Key expected : keys) {
      Key k;
      bool eof;
      ASSERT_TWRS_OK(reader.Next(&k, &eof));
      ASSERT_FALSE(eof);
      ASSERT_EQ(k, expected);
    }
    Key k;
    bool eof;
    ASSERT_TWRS_OK(reader.Next(&k, &eof));
    EXPECT_TRUE(eof);
  }
}

// ------------------------------------------- natively async backends

// A MemEnv claiming native async support: the decorator factories must
// skip their pump-thread wrappers for it.
class FakeAsyncEnv : public MemEnv {
 public:
  IoCapabilities io_capabilities() const override {
    IoCapabilities caps;
    caps.native_async = true;
    return caps;
  }
};

TEST(AsyncIoCapabilityTest, NativeAsyncSkipsThePumpWrapper) {
  // With native_async reported, MakeAsyncRecordWriter must hand the file
  // straight to the RecordWriter — byte-identical output, no pump thread
  // double-buffering the natively-async backend.
  FakeAsyncEnv env;
  ThreadPool pool(2);
  std::unique_ptr<RecordWriter> writer;
  ASSERT_TWRS_OK(
      MakeAsyncRecordWriter(&env, "records", 512, &pool, &writer));
  std::vector<Key> keys(5000);
  std::iota(keys.begin(), keys.end(), 7);
  for (Key k : keys) ASSERT_TWRS_OK(writer->Append(k));
  ASSERT_TWRS_OK(writer->Finish());

  std::vector<Key> got;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "records", &got));
  EXPECT_TRUE(got == keys);
}

TEST(AsyncIoCapabilityTest, FactoryTimesEveryWriteThatReachesTheFile) {
  // One rule on every path: with a histogram, each write that reaches the
  // backend file is timed — background flushes with a pool, synchronous
  // appends without one or on a natively async backend.
  MemEnv mem;
  FakeAsyncEnv native;
  ThreadPool pool(2);
  const struct {
    Env* env;
    ThreadPool* pool;
  } cases[] = {{&mem, nullptr}, {&mem, &pool}, {&native, &pool}};
  for (const auto& c : cases) {
    LatencyHistogram histogram;
    std::unique_ptr<RecordWriter> writer;
    ASSERT_TWRS_OK(MakeAsyncRecordWriter(c.env, "timed", 512, c.pool,
                                         &writer, &histogram));
    for (Key k = 0; k < 1000; ++k) ASSERT_TWRS_OK(writer->Append(k));
    ASSERT_TWRS_OK(writer->Finish());
    EXPECT_GT(histogram.TakeSnapshot().count, 0u)
        << "pool=" << (c.pool != nullptr) << " env=" << (c.env == &native);
  }
}

TEST(AsyncIoCapabilityTest, UringBackendRoundTripsThroughTheFactory) {
  if (!IoUringEnv::IsSupported()) {
    GTEST_SKIP() << "io_uring unavailable: "
                 << IoUringEnv::UnsupportedReason();
  }
  // End to end on the real natively-async backend: the factory writes
  // directly through the uring file (no AsyncWritableFile wrap) and the
  // bytes must match a plain posix read of the same file.
  IoUringEnv env;
  PosixEnv posix;
  ThreadPool pool(2);
  const std::string dir = twrs::testing::MakeTempDir();
  ASSERT_TWRS_OK(env.CreateDirIfMissing(dir));
  const std::string path = dir + "/records";
  std::unique_ptr<RecordWriter> writer;
  ASSERT_TWRS_OK(
      MakeAsyncRecordWriter(&env, path, 512, &pool, &writer));
  std::vector<Key> keys(20000);
  std::iota(keys.begin(), keys.end(), 1);
  for (Key k : keys) ASSERT_TWRS_OK(writer->Append(k));
  ASSERT_TWRS_OK(writer->Finish());

  std::vector<Key> via_uring, via_posix;
  ASSERT_TWRS_OK(ReadAllRecords(&env, path, &via_uring));
  ASSERT_TWRS_OK(ReadAllRecords(&posix, path, &via_posix));
  EXPECT_TRUE(via_uring == keys);
  EXPECT_TRUE(via_posix == keys) << "backends disagree on the file bytes";
}

}  // namespace
}  // namespace twrs
