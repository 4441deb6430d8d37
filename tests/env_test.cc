#include "io/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/sim_disk_env.h"
#include "io/uring_env.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

using testing::MakeTempDir;

enum class EnvKind { kMem, kPosix, kSimDisk, kUring };

// The Env contract must hold identically for the in-memory test
// filesystem, the production POSIX one, the simulated-disk decorator the
// benchmarks run on, and the io_uring backend (skipped where the kernel
// or build lacks it).
class EnvTest : public ::testing::TestWithParam<EnvKind> {
 protected:
  void SetUp() override {
    if (GetParam() == EnvKind::kMem) {
      env_ = std::make_unique<MemEnv>();
      dir_ = "mem";
    } else if (GetParam() == EnvKind::kPosix) {
      env_ = std::make_unique<PosixEnv>();
      dir_ = MakeTempDir();
    } else if (GetParam() == EnvKind::kUring) {
      if (!IoUringEnv::IsSupported()) {
        GTEST_SKIP() << "io_uring unavailable: "
                     << IoUringEnv::UnsupportedReason();
      }
      env_ = std::make_unique<IoUringEnv>();
      dir_ = MakeTempDir();
    } else {
      base_ = std::make_unique<MemEnv>();
      env_ = std::make_unique<SimDiskEnv>(base_.get());
      dir_ = "sim";
    }
    ASSERT_TWRS_OK(env_->CreateDirIfMissing(dir_));
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::unique_ptr<MemEnv> base_;  // backs the SimDiskEnv decorator
  std::unique_ptr<Env> env_;
  std::string dir_;
};

TEST_P(EnvTest, WriteThenReadBack) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env_->NewWritableFile(Path("f"), &w));
  ASSERT_TWRS_OK(w->Append("hello ", 6));
  ASSERT_TWRS_OK(w->Append("world", 5));
  ASSERT_TWRS_OK(w->Close());

  std::unique_ptr<SequentialFile> r;
  ASSERT_TWRS_OK(env_->NewSequentialFile(Path("f"), &r));
  char buf[32] = {0};
  size_t got = 0;
  ASSERT_TWRS_OK(r->Read(buf, sizeof(buf), &got));
  EXPECT_EQ(got, 11u);
  EXPECT_EQ(std::string(buf, got), "hello world");
}

TEST_P(EnvTest, SequentialReadReportsEof) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env_->NewWritableFile(Path("f"), &w));
  ASSERT_TWRS_OK(w->Append("abc", 3));
  ASSERT_TWRS_OK(w->Close());

  std::unique_ptr<SequentialFile> r;
  ASSERT_TWRS_OK(env_->NewSequentialFile(Path("f"), &r));
  char buf[8];
  size_t got = 0;
  ASSERT_TWRS_OK(r->Read(buf, 3, &got));
  EXPECT_EQ(got, 3u);
  ASSERT_TWRS_OK(r->Read(buf, 3, &got));
  EXPECT_EQ(got, 0u);
}

TEST_P(EnvTest, SkipAdvancesPosition) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env_->NewWritableFile(Path("f"), &w));
  ASSERT_TWRS_OK(w->Append("0123456789", 10));
  ASSERT_TWRS_OK(w->Close());

  std::unique_ptr<SequentialFile> r;
  ASSERT_TWRS_OK(env_->NewSequentialFile(Path("f"), &r));
  ASSERT_TWRS_OK(r->Skip(4));
  char buf[4];
  size_t got = 0;
  ASSERT_TWRS_OK(r->Read(buf, 3, &got));
  EXPECT_EQ(std::string(buf, got), "456");
}

TEST_P(EnvTest, OpenMissingFileFails) {
  std::unique_ptr<SequentialFile> r;
  EXPECT_FALSE(env_->NewSequentialFile(Path("missing"), &r).ok());
}

TEST_P(EnvTest, FileExistsAndRemove) {
  EXPECT_FALSE(env_->FileExists(Path("f")));
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env_->NewWritableFile(Path("f"), &w));
  ASSERT_TWRS_OK(w->Close());
  EXPECT_TRUE(env_->FileExists(Path("f")));
  ASSERT_TWRS_OK(env_->RemoveFile(Path("f")));
  EXPECT_FALSE(env_->FileExists(Path("f")));
  EXPECT_FALSE(env_->RemoveFile(Path("f")).ok());
}

TEST_P(EnvTest, GetFileSize) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env_->NewWritableFile(Path("f"), &w));
  ASSERT_TWRS_OK(w->Append("12345", 5));
  ASSERT_TWRS_OK(w->Close());
  uint64_t size = 0;
  ASSERT_TWRS_OK(env_->GetFileSize(Path("f"), &size));
  EXPECT_EQ(size, 5u);
}

TEST_P(EnvTest, RandomRWFileWritesAtArbitraryOffsets) {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env_->NewRandomRWFile(Path("f"), &f));
  // Write the tail before the head, as the reverse run writer does.
  ASSERT_TWRS_OK(f->WriteAt(8, "TAIL", 4));
  ASSERT_TWRS_OK(f->WriteAt(0, "HEAD", 4));
  char buf[4];
  ASSERT_TWRS_OK(f->ReadAt(8, buf, 4));
  EXPECT_EQ(std::string(buf, 4), "TAIL");
  ASSERT_TWRS_OK(f->ReadAt(0, buf, 4));
  EXPECT_EQ(std::string(buf, 4), "HEAD");
  ASSERT_TWRS_OK(f->Close());
}

TEST_P(EnvTest, RandomRWReadPastEndFails) {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env_->NewRandomRWFile(Path("f"), &f));
  ASSERT_TWRS_OK(f->WriteAt(0, "abc", 3));
  char buf[8];
  EXPECT_FALSE(f->ReadAt(0, buf, 8).ok());
}

TEST_P(EnvTest, ReopenRandomRWPreservesContents) {
  {
    std::unique_ptr<RandomRWFile> f;
    ASSERT_TWRS_OK(env_->NewRandomRWFile(Path("f"), &f));
    ASSERT_TWRS_OK(f->WriteAt(0, "01234567", 8));
    ASSERT_TWRS_OK(f->Close());
  }
  {
    std::unique_ptr<RandomRWFile> f;
    ASSERT_TWRS_OK(env_->ReopenRandomRWFile(Path("f"), &f));
    ASSERT_TWRS_OK(f->WriteAt(4, "XY", 2));  // patch, no truncation
    ASSERT_TWRS_OK(f->Close());
  }
  std::unique_ptr<SequentialFile> r;
  ASSERT_TWRS_OK(env_->NewSequentialFile(Path("f"), &r));
  char buf[8];
  size_t got = 0;
  ASSERT_TWRS_OK(r->Read(buf, 8, &got));
  EXPECT_EQ(std::string(buf, got), "0123XY67");
}

TEST_P(EnvTest, ReopenMissingFileFails) {
  std::unique_ptr<RandomRWFile> f;
  EXPECT_FALSE(env_->ReopenRandomRWFile(Path("missing"), &f).ok());
}

// --- RandomRWFile contracts the RangeWritableFile positioned-output path
// --- relies on; pinned down across every backend.

TEST_P(EnvTest, RandomRWWriteAtExtendsAndZeroFillsTheGap) {
  // A range writer may land past the current end of the shared output; the
  // file must extend to cover it, and the not-yet-written gap must read as
  // zeros (POSIX holes do; MemEnv's resize must match).
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env_->NewRandomRWFile(Path("f"), &f));
  ASSERT_TWRS_OK(f->WriteAt(16, "TAIL", 4));
  ASSERT_TWRS_OK(f->Close());
  uint64_t size = 0;
  ASSERT_TWRS_OK(env_->GetFileSize(Path("f"), &size));
  EXPECT_EQ(size, 20u);
  std::unique_ptr<RandomRWFile> r;
  ASSERT_TWRS_OK(env_->ReopenRandomRWFile(Path("f"), &r));
  char buf[20];
  ASSERT_TWRS_OK(r->ReadAt(0, buf, sizeof(buf)));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(buf[i], '\0') << "gap byte " << i;
  }
  EXPECT_EQ(std::string(buf + 16, 4), "TAIL");
}

TEST_P(EnvTest, RandomRWReopenWithoutTruncateKeepsSizeAndExtendsAtTail) {
  {
    std::unique_ptr<RandomRWFile> f;
    ASSERT_TWRS_OK(env_->NewRandomRWFile(Path("f"), &f));
    ASSERT_TWRS_OK(f->WriteAt(0, "01234567", 8));
    ASSERT_TWRS_OK(f->Close());
  }
  uint64_t size = 0;
  {
    // Reopen must not shrink the file even if this handle never writes.
    std::unique_ptr<RandomRWFile> f;
    ASSERT_TWRS_OK(env_->ReopenRandomRWFile(Path("f"), &f));
    ASSERT_TWRS_OK(f->Close());
    ASSERT_TWRS_OK(env_->GetFileSize(Path("f"), &size));
    EXPECT_EQ(size, 8u);
  }
  {
    std::unique_ptr<RandomRWFile> f;
    ASSERT_TWRS_OK(env_->ReopenRandomRWFile(Path("f"), &f));
    ASSERT_TWRS_OK(f->WriteAt(8, "89", 2));  // extend at the tail
    ASSERT_TWRS_OK(f->Close());
  }
  ASSERT_TWRS_OK(env_->GetFileSize(Path("f"), &size));
  EXPECT_EQ(size, 10u);
  std::unique_ptr<SequentialFile> r;
  ASSERT_TWRS_OK(env_->NewSequentialFile(Path("f"), &r));
  char buf[10];
  size_t got = 0;
  ASSERT_TWRS_OK(r->Read(buf, sizeof(buf), &got));
  EXPECT_EQ(std::string(buf, got), "0123456789");
}

TEST_P(EnvTest, RandomRWConcurrentWritersToDisjointRanges) {
  // The partitioned final merge: one handle per writer, each
  // filling its own byte range of a shared file, interleaved in time. The
  // result must be exactly the writers' ranges side by side.
  constexpr int kWriters = 4;
  constexpr int kChunksPerWriter = 64;
  constexpr size_t kChunkBytes = 512;
  constexpr size_t kStride = kChunksPerWriter * kChunkBytes;
  {
    std::unique_ptr<RandomRWFile> f;
    ASSERT_TWRS_OK(env_->NewRandomRWFile(Path("f"), &f));
    ASSERT_TWRS_OK(f->Close());
  }
  std::vector<std::thread> threads;
  std::vector<Status> results(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::unique_ptr<RandomRWFile> f;
      Status s = env_->ReopenRandomRWFile(Path("f"), &f);
      std::vector<char> chunk(kChunkBytes, static_cast<char>('A' + w));
      for (int c = 0; s.ok() && c < kChunksPerWriter; ++c) {
        s = f->WriteAt(w * kStride + c * kChunkBytes, chunk.data(),
                       chunk.size());
        std::this_thread::yield();  // encourage interleaving
      }
      if (s.ok()) s = f->Close();
      results[w] = s;
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < kWriters; ++w) ASSERT_TWRS_OK(results[w]);

  uint64_t size = 0;
  ASSERT_TWRS_OK(env_->GetFileSize(Path("f"), &size));
  ASSERT_EQ(size, kWriters * kStride);
  std::unique_ptr<SequentialFile> r;
  ASSERT_TWRS_OK(env_->NewSequentialFile(Path("f"), &r));
  std::vector<char> got(kWriters * kStride);
  size_t read = 0;
  ASSERT_TWRS_OK(r->Read(got.data(), got.size(), &read));
  ASSERT_EQ(read, got.size());
  for (int w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kStride; ++i) {
      ASSERT_EQ(got[w * kStride + i], static_cast<char>('A' + w))
          << "writer " << w << " byte " << i;
    }
  }
}

// --- Sync: the durability point between "the sorter returned OK" and
// --- "the bytes are on stable storage".

TEST_P(EnvTest, WritableSyncThenCloseKeepsContents) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env_->NewWritableFile(Path("f"), &w));
  ASSERT_TWRS_OK(w->Append("durable", 7));
  ASSERT_TWRS_OK(w->Sync());
  // Appending after a Sync must still work (Sync is a barrier, not an
  // implicit close)...
  ASSERT_TWRS_OK(w->Append("!", 1));
  ASSERT_TWRS_OK(w->Sync());
  ASSERT_TWRS_OK(w->Close());
  std::unique_ptr<SequentialFile> r;
  ASSERT_TWRS_OK(env_->NewSequentialFile(Path("f"), &r));
  char buf[16];
  size_t got = 0;
  ASSERT_TWRS_OK(r->Read(buf, sizeof(buf), &got));
  EXPECT_EQ(std::string(buf, got), "durable!");
}

TEST_P(EnvTest, RandomRWSyncThenCloseKeepsContents) {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env_->NewRandomRWFile(Path("f"), &f));
  ASSERT_TWRS_OK(f->WriteAt(4, "TAIL", 4));
  ASSERT_TWRS_OK(f->Sync());
  ASSERT_TWRS_OK(f->WriteAt(0, "HEAD", 4));
  ASSERT_TWRS_OK(f->Sync());
  char buf[8];
  ASSERT_TWRS_OK(f->ReadAt(0, buf, 8));
  EXPECT_EQ(std::string(buf, 8), "HEADTAIL");
  ASSERT_TWRS_OK(f->Close());
  uint64_t size = 0;
  ASSERT_TWRS_OK(env_->GetFileSize(Path("f"), &size));
  EXPECT_EQ(size, 8u);
}

// The write patterns of a sort on one handle: a range writer's ascending
// blocks (which io_uring coalesces into 256 KiB buffers), reverse-run
// pages written back to front, then a header patched at offset 0. Every
// byte must read back, on the same handle before Close and after a reopen;
// appends across a Sync must keep their order too.
TEST_P(EnvTest, WritePatternsOfASortReadBack) {
  constexpr size_t kChunk = 3 * 1024;
  constexpr size_t kChunks = 300;  // ~900 KiB: crosses 256 KiB thrice
  constexpr size_t kPage = 64 * 1024;
  constexpr size_t kPages = 6;
  constexpr size_t kPagesBase = kChunk * kChunks;
  constexpr size_t kHeader = 64;
  std::vector<char> expect(kPagesBase + kPages * kPage);
  for (size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<char>(i * 131 + i / 4099);
  }
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env_->NewRandomRWFile(Path("f"), &f));
  // The header slot first holds data that the patch below overwrites.
  for (size_t c = 0; c < kChunks; ++c) {
    ASSERT_TWRS_OK(f->WriteAt(c * kChunk, &expect[c * kChunk], kChunk));
  }
  for (size_t p = kPages; p-- > 0;) {
    const size_t off = kPagesBase + p * kPage;
    ASSERT_TWRS_OK(f->WriteAt(off, &expect[off], kPage));
  }
  for (size_t i = 0; i < kHeader; ++i) expect[i] = static_cast<char>(0xA5);
  ASSERT_TWRS_OK(f->WriteAt(0, expect.data(), kHeader));
  std::vector<char> got(expect.size());
  ASSERT_TWRS_OK(f->ReadAt(0, got.data(), got.size()));
  EXPECT_TRUE(got == expect) << "same-handle read differs";
  ASSERT_TWRS_OK(f->Close());

  uint64_t size = 0;
  ASSERT_TWRS_OK(env_->GetFileSize(Path("f"), &size));
  ASSERT_EQ(size, expect.size());
  ASSERT_TWRS_OK(env_->ReopenRandomRWFile(Path("f"), &f));
  std::fill(got.begin(), got.end(), 0);
  ASSERT_TWRS_OK(f->ReadAt(0, got.data(), got.size()));
  EXPECT_TRUE(got == expect) << "reopened read differs";
  ASSERT_TWRS_OK(f->Close());

  // 300,000-byte appends: each fills a buffer and leaves a partial one.
  constexpr size_t kAppend = 300000;
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env_->NewWritableFile(Path("w"), &w));
  ASSERT_TWRS_OK(w->Append(expect.data(), kAppend));
  ASSERT_TWRS_OK(w->Sync());
  ASSERT_TWRS_OK(w->Append(expect.data() + kAppend, kAppend));
  ASSERT_TWRS_OK(w->Close());
  std::unique_ptr<SequentialFile> r;
  ASSERT_TWRS_OK(env_->NewSequentialFile(Path("w"), &r));
  std::vector<char> appended(2 * kAppend + 1);
  size_t read = 0;
  ASSERT_TWRS_OK(r->Read(appended.data(), appended.size(), &read));
  ASSERT_EQ(read, 2 * kAppend);
  EXPECT_TRUE(std::equal(appended.begin(), appended.begin() + read,
                         expect.begin()))
      << "appended bytes differ";
}

INSTANTIATE_TEST_SUITE_P(
    AllEnvs, EnvTest,
    ::testing::Values(EnvKind::kMem, EnvKind::kPosix, EnvKind::kSimDisk,
                      EnvKind::kUring),
    [](const ::testing::TestParamInfo<EnvKind>& info) {
      switch (info.param) {
        case EnvKind::kMem:
          return "Mem";
        case EnvKind::kPosix:
          return "Posix";
        case EnvKind::kSimDisk:
          return "SimDisk";
        case EnvKind::kUring:
          return "Uring";
      }
      return "Unknown";
    });

TEST(MemEnvTest, FileContentsHelper) {
  MemEnv env;
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env.NewWritableFile("x", &w));
  ASSERT_TWRS_OK(w->Append("ab", 2));
  ASSERT_TWRS_OK(w->Close());
  ASSERT_NE(env.FileContents("x"), nullptr);
  EXPECT_EQ(env.FileContents("x")->size(), 2u);
  EXPECT_EQ(env.FileContents("y"), nullptr);
  EXPECT_EQ(env.FileCount(), 1u);
}

TEST(PreflightTempDirTest, SucceedsAndRemovesProbe) {
  MemEnv env;
  ASSERT_TWRS_OK(PreflightTempDir(&env, "scratch"));
  std::vector<std::string> names;
  ASSERT_TWRS_OK(env.ListDir("scratch", &names));
  EXPECT_TRUE(names.empty()) << "probe file left behind";
}

// A MemEnv whose unlink always fails, emulating a directory that accepts
// creations but refuses removals (e.g. a sticky-bit dir owned by another
// user).
class RemoveFailingMemEnv : public MemEnv {
 public:
  Status RemoveFile(const std::string& path) override {
    return Status::IOError("unlink forbidden: " + path);
  }
};

TEST(PreflightTempDirTest, FailsWhenProbeCannotBeRemoved) {
  // Regression: such a temp_dir used to pass the preflight (the probe's
  // removal status was dropped), only for every later scratch cleanup to
  // fail and fill the directory with orphaned run files.
  RemoveFailingMemEnv env;
  Status s = PreflightTempDir(&env, "scratch");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("not writable"), std::string::npos)
      << s.ToString();
}

TEST(EnvTest2, DefaultEnvIsUsable) {
  Env* env = Env::Default();
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env, Env::Default());  // singleton
}

TEST(IoBackendTest, ParseAcceptsKnownNamesOnly) {
  IoBackend b = IoBackend::kDefault;
  EXPECT_TRUE(ParseIoBackend("posix", &b));
  EXPECT_EQ(b, IoBackend::kPosix);
  EXPECT_TRUE(ParseIoBackend("uring", &b));
  EXPECT_EQ(b, IoBackend::kUring);
  EXPECT_TRUE(ParseIoBackend("auto", &b));
  EXPECT_EQ(b, IoBackend::kAuto);
  EXPECT_FALSE(ParseIoBackend("io_uring", &b));
  EXPECT_FALSE(ParseIoBackend("", &b));
}

TEST(IoBackendTest, ResolveFollowsRuntimeSupport) {
  IoBackend resolved = IoBackend::kAuto;
  ASSERT_TWRS_OK(ResolveIoBackend(IoBackend::kPosix, &resolved));
  EXPECT_EQ(resolved, IoBackend::kPosix);
  // kDefault means "keep the Env you already have" and resolves to itself.
  ASSERT_TWRS_OK(ResolveIoBackend(IoBackend::kDefault, &resolved));
  EXPECT_EQ(resolved, IoBackend::kDefault);
  // kAuto never fails: uring when the kernel+build support it, else posix.
  ASSERT_TWRS_OK(ResolveIoBackend(IoBackend::kAuto, &resolved));
  EXPECT_EQ(resolved, IoUringEnv::IsSupported() ? IoBackend::kUring
                                                : IoBackend::kPosix);
  // An explicit kUring request resolves only on support and otherwise
  // fails with the probe's reason, never silently degrades.
  Status s = ResolveIoBackend(IoBackend::kUring, &resolved);
  if (IoUringEnv::IsSupported()) {
    ASSERT_TWRS_OK(s);
    EXPECT_EQ(resolved, IoBackend::kUring);
  } else {
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find(IoUringEnv::UnsupportedReason()),
              std::string::npos)
        << s.ToString();
  }
}

TEST(IoBackendTest, DefaultFactoryReturnsSingletons) {
  EXPECT_EQ(Env::Default(IoBackend::kPosix), Env::Default());
  EXPECT_EQ(Env::Default(IoBackend::kDefault), Env::Default());
  EXPECT_FALSE(Env::Default()->io_capabilities().native_async);
  if (IoUringEnv::IsSupported()) {
    Env* uring = Env::Default(IoBackend::kUring);
    ASSERT_NE(uring, nullptr);
    EXPECT_NE(uring, Env::Default());
    EXPECT_EQ(uring, Env::Default(IoBackend::kUring));  // singleton
    EXPECT_TRUE(uring->io_capabilities().native_async);
  }
}

}  // namespace
}  // namespace twrs
