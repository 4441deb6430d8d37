#ifndef TWRS_CORE_RECORD_SOURCE_H_
#define TWRS_CORE_RECORD_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/record.h"
#include "util/status.h"

namespace twrs {

/// A stream of input records. Run generation algorithms consume it a batch
/// at a time so that inputs never need to fit in memory — exactly the
/// database setting the paper targets, where upstream operators feed the
/// sort incrementally.
///
/// An implementation provides one method, ReadSome. Consumers call Read,
/// which returns the read's error with the records, so a failed read can
/// never pass for a short input.
class RecordSource {
 public:
  /// Records Next reads ahead per refill (8 KiB), and a good batch size
  /// for consumers that have none of their own.
  static constexpr size_t kReadBatch = 1024;

  virtual ~RecordSource() = default;

  /// Reads up to `cap` records into `out` and sets `*n` to the count. It
  /// fills `cap` unless the input ends, so `*n < cap` means end of input
  /// (or an error). Records Next has read ahead come first. On error `*n`
  /// still counts the records delivered before it, and the error is
  /// sticky: every later read returns it.
  Status Read(Key* out, size_t cap, size_t* n);

  /// Convenience for record-at-a-time readers: produces the next record
  /// in `*key` from a kReadBatch-key read-ahead; returns false at end of
  /// input or on error, and status() tells which. Next and Read may be
  /// mixed on one source and still return its records in order.
  bool Next(Key* key) {
    if (ahead_pos_ == ahead_end_ && !Refill()) return false;
    *key = ahead_[ahead_pos_++];
    return true;
  }

  /// Why a read came up short: OK at a true end of input, the (sticky)
  /// error otherwise. Only Next callers need it; Read returns it.
  const Status& status() const { return status_; }

 protected:
  /// Produces between 1 and `cap` records into `out` (`cap` > 0), or sets
  /// `*n` to 0 with OK at end of input. On error, `*n` counts the records
  /// produced before it.
  virtual Status ReadSome(Key* out, size_t cap, size_t* n) = 0;

 private:
  // Reads the next kReadBatch records into ahead_; false if none came.
  bool Refill();

  Status status_;
  std::unique_ptr<Key[]> ahead_;  // allocated on the first Next
  size_t ahead_pos_ = 0;          // next key of ahead_ to serve
  size_t ahead_end_ = 0;          // keys of ahead_ read
};

/// RecordSource over an in-memory vector (test and example helper).
class VectorSource : public RecordSource {
 public:
  explicit VectorSource(std::vector<Key> keys) : keys_(std::move(keys)) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    *n = std::min(cap, keys_.size() - pos_);
    std::copy_n(keys_.data() + pos_, *n, out);
    pos_ += *n;
    return Status::OK();
  }

 private:
  std::vector<Key> keys_;
  size_t pos_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_RECORD_SOURCE_H_
