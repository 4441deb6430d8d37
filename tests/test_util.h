#ifndef TWRS_TESTS_TEST_UTIL_H_
#define TWRS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/record_source.h"
#include "core/run_generator.h"
#include "core/run_sink.h"
#include "io/mem_env.h"
#include "util/cancel.h"
#include "util/checksum.h"
#include "util/status.h"

namespace twrs {
namespace testing {

/// gtest assertion on a twrs::Status.
#define ASSERT_TWRS_OK(expr)                                 \
  do {                                                       \
    ::twrs::Status _s = (expr);                              \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();     \
  } while (0)

#define EXPECT_TWRS_OK(expr)                                 \
  do {                                                       \
    ::twrs::Status _s = (expr);                              \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();     \
  } while (0)

/// Reads a source to exhaustion.
inline std::vector<Key> Drain(RecordSource* source) {
  std::vector<Key> out;
  Key key;
  while (source->Next(&key)) out.push_back(key);
  return out;
}

inline bool IsSortedAscending(const std::vector<Key>& keys) {
  return std::is_sorted(keys.begin(), keys.end());
}

inline KeyChecksum ChecksumOf(const std::vector<Key>& keys) {
  KeyChecksum sum;
  for (Key k : keys) sum.Add(k);
  return sum;
}

/// Output of GenerateRuns below.
struct GenerateResult {
  std::vector<std::vector<Key>> runs;  ///< each assembled ascending
  RunGenStats stats;
};

/// Runs a generator over an in-memory input, collecting assembled runs.
inline GenerateResult GenerateRuns(RunGenerator* generator,
                                   std::vector<Key> input) {
  VectorSource source(std::move(input));
  CollectingRunSink sink;
  GenerateResult result;
  Status s = generator->Generate(&source, &sink, &result.stats);
  EXPECT_TRUE(s.ok()) << "Generate: " << s.ToString();
  result.runs = sink.collected();
  return result;
}

/// Asserts the runs are individually sorted and jointly a permutation of
/// the input.
inline void ExpectValidRuns(const std::vector<std::vector<Key>>& runs,
                            const std::vector<Key>& input) {
  KeyChecksum output_sum;
  for (const auto& run : runs) {
    EXPECT_TRUE(IsSortedAscending(run)) << "run not sorted";
    for (Key k : run) output_sum.Add(k);
  }
  EXPECT_TRUE(output_sum == ChecksumOf(input))
      << "runs are not a permutation of the input";
}

/// Rising keys 10, 20, 30, ... in which the last of every `every` records
/// is a straggler, moved by `offset` from its place: a negative offset
/// makes a late key that only a later run can take, a large positive one
/// a key the current run holds until its end. A batched generator reading
/// `every` records a batch keeps one straggler from each batch long after
/// the rest of the batch has left.
inline std::vector<Key> RisingWithStragglers(size_t records, size_t every,
                                             Key offset) {
  std::vector<Key> keys(records);
  for (size_t i = 0; i < records; ++i) {
    keys[i] = static_cast<Key>(10 * i);
    if (i % every == every - 1) keys[i] += offset;
  }
  return keys;
}

/// Counts the records a run generator has read and emitted, and checks at
/// every read and every emission that it never holds more than `memory`
/// records. LedgerSource and LedgerSink below feed it.
class MemoryLedger {
 public:
  explicit MemoryLedger(uint64_t memory) : memory_(memory) {}

  void Read(uint64_t n) {
    read_ += n;
    Check();
  }
  void Emitted(uint64_t n) {
    emitted_ += n;
    Check();
  }
  uint64_t max_held() const { return max_held_; }

 private:
  void Check() {
    ASSERT_LE(emitted_, read_);
    max_held_ = std::max(max_held_, read_ - emitted_);
    EXPECT_LE(read_ - emitted_, memory_)
        << "read " << read_ << " emitted " << emitted_;
  }

  uint64_t memory_;
  uint64_t read_ = 0;
  uint64_t emitted_ = 0;
  uint64_t max_held_ = 0;
};

/// Counts every record read through it into a MemoryLedger.
class LedgerSource : public RecordSource {
 public:
  LedgerSource(RecordSource* base, MemoryLedger* ledger)
      : base_(base), ledger_(ledger) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    const Status s = base_->Read(out, cap, n);
    ledger_->Read(*n);
    return s;
  }

 private:
  RecordSource* base_;
  MemoryLedger* ledger_;
};

/// Counts every record emitted through it into a MemoryLedger.
class LedgerSink : public RunSink {
 public:
  LedgerSink(RunSink* base, MemoryLedger* ledger)
      : base_(base), ledger_(ledger) {}

  Status BeginRun() override { return base_->BeginRun(); }
  Status Append(RunStream stream, Key key) override {
    ledger_->Emitted(1);
    return base_->Append(stream, key);
  }
  Status AppendSorted(RunStream stream, const Key* keys, size_t n) override {
    ledger_->Emitted(n);
    return base_->AppendSorted(stream, keys, n);
  }
  Status EndRun() override {
    Status s = base_->EndRun();
    runs_ = base_->runs();
    return s;
  }
  Status Finish() override { return base_->Finish(); }

 private:
  RunSink* base_;
  MemoryLedger* ledger_;
};

/// Yields `keys`, then fails with `error`: an input whose read failed
/// after the records before it were delivered.
class FailingSource : public VectorSource {
 public:
  FailingSource(std::vector<Key> keys, Status error)
      : VectorSource(std::move(keys)), error_(std::move(error)) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    TWRS_RETURN_IF_ERROR(VectorSource::ReadSome(out, cap, n));
    return *n > 0 ? Status::OK() : error_;
  }

 private:
  Status error_;
};

/// Yields `keys`, firing `token` once `fire_after` of them have been read
/// and the next read starts — deterministic mid-stream cancellation.
class CancelAfterNSource : public VectorSource {
 public:
  CancelAfterNSource(std::vector<Key> keys, size_t fire_after,
                     CancelToken* token)
      : VectorSource(std::move(keys)), fire_after_(fire_after),
        token_(token) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    if (read_ == fire_after_) token_->Cancel();
    // A read stops at the firing point, so the token fires exactly there.
    if (read_ < fire_after_) cap = std::min(cap, fire_after_ - read_);
    TWRS_RETURN_IF_ERROR(VectorSource::ReadSome(out, cap, n));
    read_ += *n;
    return Status::OK();
  }

 private:
  size_t fire_after_;
  CancelToken* token_;
  size_t read_ = 0;
};

/// MemEnv whose sequential reads of one file fail once `fail_at` bytes of
/// it have been served: a disk error in the middle of an input file.
class FailingInputReadEnv : public MemEnv {
 public:
  FailingInputReadEnv(std::string path, size_t fail_at)
      : path_(std::move(path)), fail_at_(fail_at) {}

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    TWRS_RETURN_IF_ERROR(MemEnv::NewSequentialFile(path, out));
    if (path == path_) {
      *out = std::make_unique<FailingFile>(std::move(*out), fail_at_);
    }
    return Status::OK();
  }

 private:
  class FailingFile : public SequentialFile {
   public:
    FailingFile(std::unique_ptr<SequentialFile> base, size_t fail_at)
        : base_(std::move(base)), fail_at_(fail_at) {}

    Status Read(void* out, size_t n, size_t* bytes_read) override {
      if (served_ + n > fail_at_) return Status::IOError("injected read error");
      TWRS_RETURN_IF_ERROR(base_->Read(out, n, bytes_read));
      served_ += *bytes_read;
      return Status::OK();
    }

    Status Skip(uint64_t n) override { return base_->Skip(n); }

   private:
    std::unique_ptr<SequentialFile> base_;
    size_t fail_at_;
    size_t served_ = 0;
  };

  std::string path_;
  size_t fail_at_;
};

/// Creates a unique scratch directory under /tmp for PosixEnv tests.
inline std::string MakeTempDir() {
  std::string templ = "/tmp/twrs_test_XXXXXX";
  char* dir = mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

}  // namespace testing
}  // namespace twrs

#endif  // TWRS_TESTS_TEST_UTIL_H_
