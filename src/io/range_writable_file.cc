#include "io/range_writable_file.h"

#include <utility>

namespace twrs {

RangeWritableFile::~RangeWritableFile() {
  if (!closed_) TWRS_IGNORE_STATUS(file_->Close());
}

Status RangeWritableFile::Append(const void* data, size_t n) {
  TWRS_RETURN_IF_ERROR(status_);
  if (closed_) {
    status_ = Status::InvalidArgument("Append on closed RangeWritableFile");
    return status_;
  }
  if (written_ + n > length_) {
    status_ = Status::InvalidArgument(
        "write beyond the assigned range of " + std::to_string(length_) +
        " bytes");
    return status_;
  }
  status_ = file_->WriteAt(offset_ + written_, data, n);
  if (status_.ok()) written_ += n;
  return status_;
}

Status RangeWritableFile::Close() {
  if (closed_) return status_;
  closed_ = true;
  if (status_.ok() && written_ != length_) {
    status_ = Status::Corruption("range writer wrote " +
                                 std::to_string(written_) + " of " +
                                 std::to_string(length_) + " assigned bytes");
  }
  Status close_status = file_->Close();
  if (status_.ok()) status_ = std::move(close_status);
  return status_;
}

Status NewRangeWritableFile(Env* env, const std::string& path,
                            const MergeOutputRange& range,
                            std::unique_ptr<WritableFile>* out) {
  std::unique_ptr<RandomRWFile> file;
  TWRS_RETURN_IF_ERROR(env->ReopenRandomRWFile(path, &file));
  *out = std::make_unique<RangeWritableFile>(std::move(file), range.offset,
                                             range.length);
  return Status::OK();
}

Status MakeRecordWriter(Env* env, const std::string& path, size_t block_bytes,
                        std::unique_ptr<RecordWriter>* out,
                        LatencyHistogram* flush_histogram,
                        const MergeOutputRange& range) {
  std::unique_ptr<WritableFile> file;
  if (range.positioned) {
    TWRS_RETURN_IF_ERROR(NewRangeWritableFile(env, path, range, &file));
  } else {
    TWRS_RETURN_IF_ERROR(env->NewWritableFile(path, &file));
  }
  *out = std::make_unique<RecordWriter>(std::move(file), block_bytes);
  (*out)->set_flush_histogram(flush_histogram);
  return (*out)->status();
}

}  // namespace twrs
