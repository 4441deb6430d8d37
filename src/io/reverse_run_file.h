#ifndef TWRS_IO_REVERSE_RUN_FILE_H_
#define TWRS_IO_REVERSE_RUN_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/record.h"
#include "io/env.h"
#include "util/status.h"

namespace twrs {

/// Parameters of the Appendix-A file format for decreasing streams.
struct ReverseRunFileOptions {
  /// Pages per file, including the header page ("k" in the thesis, which
  /// uses k = 1000 for 4 MB files; the default matches that file size).
  uint64_t pages_per_file = 64;

  /// Page size in bytes; must be a multiple of kRecordBytes and >= 64.
  /// The thesis writes one 4 KiB filesystem page at a time; buffering a
  /// block of pages instead (the memory comes out of the sort budget,
  /// as Appendix A.2 prescribes) keeps the write granularity of the
  /// decreasing streams equal to that of the forward streams.
  uint64_t page_bytes = 64 * 1024;
};

/// Writer for streams produced in *decreasing* key order (2WRS streams 2
/// and 4) that must later be read in increasing order without reading disk
/// backwards (Appendix A).
///
/// Records are written starting at the last byte of the last page of a
/// fixed-size file and proceed backwards, one page-sized buffer at a time,
/// so a forward scan of the file yields the records in increasing order.
/// When a file fills up, a new one named `<base>.N` (N = 1, 2, ...) is
/// created. Page 0 of each file is a header; the header of file 0
/// additionally records the total number of files, making the stream
/// self-describing.
class ReverseRunWriter {
 public:
  ReverseRunWriter(Env* env, std::string base_path,
                   ReverseRunFileOptions options = ReverseRunFileOptions());
  ~ReverseRunWriter();

  ReverseRunWriter(const ReverseRunWriter&) = delete;
  ReverseRunWriter& operator=(const ReverseRunWriter&) = delete;

  const Status& status() const { return status_; }

  /// Appends one record. Keys must arrive in non-increasing order; this is
  /// checked and violations return Status::InvalidArgument.
  Status Append(Key key);

  /// Appends `n` non-increasing keys, encoding each straight into its
  /// back-to-front page slot. The file bytes equal those of `n`
  /// Append calls. If the span breaks the order (within itself or against
  /// the last key appended), nothing is written and InvalidArgument is
  /// returned, as Append does.
  Status AppendBatch(const Key* keys, size_t n);

  /// Finalizes the current file, patches the file count into file 0's
  /// header, and closes everything.
  Status Finish();

  /// Records appended so far.
  uint64_t count() const { return count_; }

  /// Files created so far (valid after Finish()).
  uint64_t num_files() const { return file_index_; }

  /// Name of the N-th physical file of a stream.
  static std::string FileName(const std::string& base_path, uint64_t index);

 private:
  Status OpenNextFile();
  Status FlushPage(uint64_t page);
  Status FinalizeCurrentFile();

  /// Flushes the page just filled and moves to the next page down, closing
  /// the file after its last data page.
  Status AdvancePage();

  Env* env_;
  std::string base_path_;
  ReverseRunFileOptions options_;
  Status status_;

  std::unique_ptr<RandomRWFile> file_;
  uint64_t file_index_ = 0;      // files fully created so far
  uint64_t current_page_ = 0;    // page being filled (counts down to 1)
  uint64_t file_record_count_ = 0;
  std::vector<uint8_t> page_;    // one page buffer, filled back to front
  uint64_t page_pos_ = 0;        // next write ends at this offset
  uint64_t count_ = 0;
  bool has_last_key_ = false;
  Key last_key_ = 0;
  bool finished_ = false;
  bool file_open_ = false;
};

/// Where one physical file of a reverse stream keeps its records: in
/// ascending key order, in one contiguous region of the file.
struct ReverseFileExtent {
  uint64_t data_offset = 0;  ///< byte offset of the smallest record
  uint64_t count = 0;        ///< records in the file
};

/// Reads the header of `name`, one physical file of a reverse stream,
/// from `file` with one positioned read. A stream's files in the order
/// num_files - 1, ..., 0 hold its records in ascending key order.
Status ReadReverseFileExtent(RandomRWFile* file, const std::string& name,
                             ReverseFileExtent* extent);

/// Reads a stream written by ReverseRunWriter in increasing key order. Files
/// are visited from the last one created back to file 0, each scanned
/// strictly forward, as Appendix A prescribes for rotating disks.
class ReverseRunReader {
 public:
  /// Opens the stream rooted at `base_path`. If `num_files` is 0 the count
  /// is discovered from file 0's header.
  ReverseRunReader(Env* env, std::string base_path, uint64_t num_files = 0,
                   size_t buffer_bytes = 64 * 1024);

  ReverseRunReader(const ReverseRunReader&) = delete;
  ReverseRunReader& operator=(const ReverseRunReader&) = delete;

  const Status& status() const { return status_; }

  /// Decodes up to `max` records into `out` through DecodeKeysBatch,
  /// from the buffered block only: the next block (or file) is read only
  /// when nothing is buffered, so a batch never reads ahead of a
  /// record-at-a-time schedule. Sets `*got` to the number delivered; 0
  /// means end of stream.
  Status Read(Key* out, size_t max, size_t* got);

  /// Advances past the next `n` records without decoding them. Whole files
  /// are skipped by reading only their header (each file's data region is
  /// contiguous, so a within-file skip is a single Skip on the underlying
  /// handle). Skipping past the end of the stream is a no-op, as in
  /// SequentialFile::Skip. The ranged merge cursors use this to start a
  /// partial merge mid-run without paying the prefix read.
  Status SkipRecords(uint64_t n);

  /// Total number of physical files in the stream.
  uint64_t num_files() const { return num_files_; }

 private:
  Status OpenFile(uint64_t index);

  /// Refills the buffer when it is drained, opening earlier files as later
  /// ones run out; sets `*eof` once the whole stream is consumed.
  Status FillBuffer(bool* eof);

  Env* env_;
  std::string base_path_;
  Status status_;
  uint64_t num_files_ = 0;
  uint64_t next_file_ = 0;  // counts down; num_files_ - pos
  std::unique_ptr<SequentialFile> file_;
  uint64_t remaining_in_file_ = 0;
  std::vector<uint8_t> buffer_;
  size_t buffer_size_ = 0;
  size_t buffer_pos_ = 0;
  bool opened_any_ = false;
};

}  // namespace twrs

#endif  // TWRS_IO_REVERSE_RUN_FILE_H_
