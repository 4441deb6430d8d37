#ifndef TWRS_CORE_RECORD_SOURCE_H_
#define TWRS_CORE_RECORD_SOURCE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/record.h"
#include "util/status.h"

namespace twrs {

/// A stream of input records. Run generation algorithms consume records one
/// at a time (or, for Load-Sort-Store, one batch at a time) so that inputs
/// never need to fit in memory — exactly the database setting the paper
/// targets, where upstream operators feed the sort incrementally.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Produces the next record in `*key`; returns false at end of stream
  /// or on error.
  virtual bool Next(Key* key) = 0;

  /// Produces up to `cap` records into `out` and returns how many. Like
  /// Next, 0 means end of stream or error, and status() tells which. The
  /// default loops Next; sources with a bulk path override it.
  virtual size_t NextBatch(Key* out, size_t cap) {
    size_t n = 0;
    while (n < cap && Next(out + n)) ++n;
    return n;
  }

  /// Why the stream ended: OK at a true end of input, the error otherwise.
  /// A sort returns it once the source is drained, so a failed read can
  /// never pass for a short input.
  virtual Status status() const { return Status::OK(); }
};

/// Reads up to `cap` records into `out` through NextBatch, stopping early
/// only at the end of the stream (or an error, which `status()` reports).
/// Returns the count read.
inline size_t ReadBatch(RecordSource* source, Key* out, size_t cap) {
  size_t filled = 0;
  while (filled < cap) {
    const size_t got = source->NextBatch(out + filled, cap - filled);
    if (got == 0) break;
    filled += got;
  }
  return filled;
}

/// RecordSource over an in-memory vector (test and example helper).
class VectorSource : public RecordSource {
 public:
  explicit VectorSource(std::vector<Key> keys) : keys_(std::move(keys)) {}

  bool Next(Key* key) override {
    if (pos_ == keys_.size()) return false;
    *key = keys_[pos_++];
    return true;
  }

  /// Rewinds to the beginning.
  void Reset() { pos_ = 0; }

 private:
  std::vector<Key> keys_;
  size_t pos_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_RECORD_SOURCE_H_
