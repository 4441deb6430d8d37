#ifndef TWRS_IO_RECORD_IO_H_
#define TWRS_IO_RECORD_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/record.h"
#include "io/env.h"
#include "util/status.h"

namespace twrs {

class LatencyHistogram;

/// Default I/O block size. The paper's file system page is 4 KiB (§A.1); we
/// buffer several pages per sequential stream, as real systems do.
inline constexpr size_t kDefaultBlockBytes = 64 * 1024;

/// Block-buffered sequential writer of fixed-size records.
class RecordWriter {
 public:
  /// Creates the file at `path` (truncating). Call status() to check.
  RecordWriter(Env* env, const std::string& path,
               size_t block_bytes = kDefaultBlockBytes);

  /// Writes through an already-open handle (e.g. a RangeWritableFile over
  /// part of a shared output). Takes ownership of `file`.
  explicit RecordWriter(std::unique_ptr<WritableFile> file,
                        size_t block_bytes = kDefaultBlockBytes);

  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Status of construction; Append/Finish fail if this is not OK.
  const Status& status() const { return status_; }

  /// Appends one record.
  Status Append(Key key);

  /// Appends `n` records in bulk, serializing whole block-sized chunks
  /// through EncodeKeysBatch instead of one record at a time.
  Status AppendBatch(const Key* keys, size_t n);

  /// Flushes remaining buffered records and closes the file. With
  /// set_sync_on_finish, first forces the bytes to stable storage.
  Status Finish();

  /// Makes Finish Sync the file before closing. Set on final outputs
  /// (merge outputs with MergeIoOptions::sync_output, top-K results, empty
  /// sort outputs) — not on scratch runs. A writer destroyed without
  /// Finish is not synced.
  void set_sync_on_finish(bool sync) { sync_on_finish_ = sync; }

  /// Records the wall time of every block write that reaches the file into
  /// `histogram`, which must outlive the writer. Null (the default)
  /// disables timing.
  void set_flush_histogram(LatencyHistogram* histogram) {
    flush_histogram_ = histogram;
  }

  /// Number of records appended so far.
  uint64_t count() const { return count_; }

 private:
  /// Writes the buffered bytes to the file (timed when a histogram is
  /// set) and empties the buffer.
  Status WriteBuffer();

  Status status_;
  std::unique_ptr<WritableFile> file_;
  std::vector<uint8_t> buffer_;
  size_t buffer_used_ = 0;
  uint64_t count_ = 0;
  LatencyHistogram* flush_histogram_ = nullptr;
  bool finished_ = false;
  bool sync_on_finish_ = false;
};

/// Block-buffered sequential reader of fixed-size records.
class RecordReader {
 public:
  /// Opens `path`. Call status() to check.
  RecordReader(Env* env, const std::string& path,
               size_t block_bytes = kDefaultBlockBytes);

  /// Reads through an already-open handle (e.g. one positioned past a
  /// prefix with Skip). Takes ownership of `file`.
  explicit RecordReader(std::unique_ptr<SequentialFile> file,
                        size_t block_bytes = kDefaultBlockBytes);

  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  const Status& status() const { return status_; }

  /// Reads the next record into `*key`; sets `*eof` instead at end of file.
  Status Next(Key* key, bool* eof);

  /// Reads up to `max` records into `out` in bulk via DecodeKeysBatch.
  /// Sets `*got` to the number delivered; 0 means end of file.
  Status Read(Key* out, size_t max, size_t* got);

 private:
  /// Refills buffer_ from the file. On return, buffer_pos_ < buffer_size_
  /// unless the file is exhausted.
  Status Refill();

  Status status_;
  std::unique_ptr<SequentialFile> file_;
  std::vector<uint8_t> buffer_;
  size_t buffer_size_ = 0;  // valid bytes in buffer_
  size_t buffer_pos_ = 0;
  bool at_eof_ = false;
};

/// Reads all records of a file into a vector (test and example helper).
Status ReadAllRecords(Env* env, const std::string& path,
                      std::vector<Key>* out);

/// Writes all records of a vector to a file (test and example helper).
Status WriteAllRecords(Env* env, const std::string& path,
                       const std::vector<Key>& keys);

}  // namespace twrs

#endif  // TWRS_IO_RECORD_IO_H_
