#ifndef TWRS_IO_RANGE_WRITABLE_FILE_H_
#define TWRS_IO_RANGE_WRITABLE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "io/env.h"
#include "io/record_io.h"
#include "util/status.h"

namespace twrs {

/// Where a merge puts its bytes. In append mode (the default) the merge
/// creates its output file. In positioned mode it writes into
/// [offset, offset + `length`) of the *existing* output through a
/// RangeWritableFile, without truncating it — how each partition of the
/// partitioned final merge lands directly in one range of a shared output.
struct MergeOutputRange {
  bool positioned = false;
  uint64_t offset = 0;
  uint64_t length = 0;  ///< exact bytes the merge must produce
};

/// WritableFile over the caller-assigned byte range [offset, offset +
/// length) of a shared file: each Append lands through RandomRWFile::
/// WriteAt at the next position of the range. Several RangeWritableFiles
/// over distinct handles of one file may write concurrently as long as
/// their ranges are disjoint — the Env contract pinned down by env_test
/// (extend-on-write, disjoint concurrent writers).
///
/// A range must be filled exactly: an Append past its end fails with
/// InvalidArgument, and Close returns Corruption unless exactly `length`
/// bytes were written — a short or long range would leave a hole in (or
/// tear a neighbour of) the shared output.
class RangeWritableFile : public WritableFile {
 public:
  /// Takes ownership of `file`, a handle opened without truncation.
  RangeWritableFile(std::unique_ptr<RandomRWFile> file, uint64_t offset,
                    uint64_t length)
      : file_(std::move(file)), offset_(offset), length_(length) {}

  /// Error-path unwinding (destroyed without Close): closes the handle and
  /// reports nothing — the range's bytes are being discarded.
  ~RangeWritableFile() override;

  Status Append(const void* data, size_t n) override;
  Status Sync() override { return file_->Sync(); }

  /// Closes the handle; Corruption when the range is not exactly filled.
  /// Idempotent.
  Status Close() override;

 private:
  std::unique_ptr<RandomRWFile> file_;
  const uint64_t offset_;
  const uint64_t length_;
  uint64_t written_ = 0;
  Status status_;
  bool closed_ = false;
};

/// Opens `path` for positioned writes without truncation and returns a
/// RangeWritableFile over `range` of it. The file must already exist: its
/// creator truncates it exactly once, before any range writer starts.
Status NewRangeWritableFile(Env* env, const std::string& path,
                            const MergeOutputRange& range,
                            std::unique_ptr<WritableFile>* out);

/// The single construction point for every record stream the engine
/// writes — run sink streams and every merge output, append or positioned.
/// Creates `path` through `env` (truncating), or, when `range.positioned`,
/// opens a RangeWritableFile over that range of the existing file, and
/// returns a RecordWriter over it. A non-null `flush_histogram` records the
/// wall time of every block write that reaches the file; it must outlive
/// the writer.
Status MakeRecordWriter(Env* env, const std::string& path, size_t block_bytes,
                        std::unique_ptr<RecordWriter>* out,
                        LatencyHistogram* flush_histogram = nullptr,
                        const MergeOutputRange& range = {});

}  // namespace twrs

#endif  // TWRS_IO_RANGE_WRITABLE_FILE_H_
