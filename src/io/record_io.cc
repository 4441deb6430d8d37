#include "io/record_io.h"

#include <algorithm>

#include "obs/latency_histogram.h"
#include "util/stopwatch.h"

namespace twrs {

RecordWriter::RecordWriter(Env* env, const std::string& path,
                           size_t block_bytes) {
  // Round the buffer down to a whole number of records (at least one).
  size_t records_per_block = std::max<size_t>(1, block_bytes / kRecordBytes);
  buffer_.resize(records_per_block * kRecordBytes);
  status_ = env->NewWritableFile(path, &file_);
}

RecordWriter::RecordWriter(std::unique_ptr<WritableFile> file,
                           size_t block_bytes)
    : file_(std::move(file)) {
  size_t records_per_block = std::max<size_t>(1, block_bytes / kRecordBytes);
  buffer_.resize(records_per_block * kRecordBytes);
  if (file_ == nullptr) {
    status_ = Status::InvalidArgument("RecordWriter requires a file");
  }
}

RecordWriter::~RecordWriter() {
  // Callers that need the flush outcome call Finish() themselves; by the
  // time the destructor runs there is nowhere left to report it. An
  // unfinished writer is being abandoned, so it is not worth a Sync.
  sync_on_finish_ = false;
  if (!finished_ && file_ != nullptr) TWRS_IGNORE_STATUS(Finish());
}

Status RecordWriter::WriteBuffer() {
  if (flush_histogram_ == nullptr) {
    status_ = file_->Append(buffer_.data(), buffer_used_);
  } else {
    Stopwatch watch;
    status_ = file_->Append(buffer_.data(), buffer_used_);
    flush_histogram_->RecordSeconds(watch.ElapsedSeconds());
  }
  buffer_used_ = 0;
  return status_;
}

Status RecordWriter::Append(Key key) {
  TWRS_RETURN_IF_ERROR(status_);
  EncodeKey(key, buffer_.data() + buffer_used_);
  buffer_used_ += kRecordBytes;
  ++count_;
  if (buffer_used_ == buffer_.size()) return WriteBuffer();
  return status_;
}

Status RecordWriter::AppendBatch(const Key* keys, size_t n) {
  TWRS_RETURN_IF_ERROR(status_);
  size_t done = 0;
  while (done < n) {
    const size_t room = (buffer_.size() - buffer_used_) / kRecordBytes;
    const size_t take = std::min(room, n - done);
    EncodeKeysBatch(keys + done, take, buffer_.data() + buffer_used_);
    buffer_used_ += take * kRecordBytes;
    count_ += take;
    done += take;
    if (buffer_used_ == buffer_.size()) {
      TWRS_RETURN_IF_ERROR(WriteBuffer());
    }
  }
  return status_;
}

Status RecordWriter::Finish() {
  if (finished_) return status_;
  finished_ = true;
  TWRS_RETURN_IF_ERROR(status_);
  if (buffer_used_ > 0) TWRS_RETURN_IF_ERROR(WriteBuffer());
  if (sync_on_finish_) {
    status_ = file_->Sync();
    TWRS_RETURN_IF_ERROR(status_);
  }
  status_ = file_->Close();
  return status_;
}

RecordReader::RecordReader(Env* env, const std::string& path,
                           size_t block_bytes) {
  size_t records_per_block = std::max<size_t>(1, block_bytes / kRecordBytes);
  buffer_.resize(records_per_block * kRecordBytes);
  status_ = env->NewSequentialFile(path, &file_);
}

RecordReader::RecordReader(std::unique_ptr<SequentialFile> file,
                           size_t block_bytes)
    : file_(std::move(file)) {
  size_t records_per_block = std::max<size_t>(1, block_bytes / kRecordBytes);
  buffer_.resize(records_per_block * kRecordBytes);
  if (file_ == nullptr) {
    status_ = Status::InvalidArgument("RecordReader requires a file");
  }
}

Status RecordReader::Refill() {
  size_t got = 0;
  status_ = file_->Read(buffer_.data(), buffer_.size(), &got);
  TWRS_RETURN_IF_ERROR(status_);
  if (got < buffer_.size()) at_eof_ = true;
  if (got % kRecordBytes != 0) {
    status_ = Status::Corruption("file size not a multiple of record size");
    return status_;
  }
  buffer_size_ = got;
  buffer_pos_ = 0;
  return Status::OK();
}

Status RecordReader::Next(Key* key, bool* eof) {
  TWRS_RETURN_IF_ERROR(status_);
  *eof = false;
  if (buffer_pos_ == buffer_size_) {
    if (at_eof_) {
      *eof = true;
      return Status::OK();
    }
    TWRS_RETURN_IF_ERROR(Refill());
    if (buffer_size_ == 0) {
      *eof = true;
      return Status::OK();
    }
  }
  *key = DecodeKey(buffer_.data() + buffer_pos_);
  buffer_pos_ += kRecordBytes;
  return Status::OK();
}

Status RecordReader::Read(Key* out, size_t max, size_t* got) {
  *got = 0;
  TWRS_RETURN_IF_ERROR(status_);
  while (*got < max) {
    if (buffer_pos_ == buffer_size_) {
      if (at_eof_) return Status::OK();
      TWRS_RETURN_IF_ERROR(Refill());
      if (buffer_size_ == 0) return Status::OK();
    }
    const size_t avail = (buffer_size_ - buffer_pos_) / kRecordBytes;
    const size_t take = std::min(avail, max - *got);
    DecodeKeysBatch(buffer_.data() + buffer_pos_, take, out + *got);
    buffer_pos_ += take * kRecordBytes;
    *got += take;
  }
  return Status::OK();
}

Status ReadAllRecords(Env* env, const std::string& path,
                      std::vector<Key>* out) {
  out->clear();
  RecordReader reader(env, path);
  TWRS_RETURN_IF_ERROR(reader.status());
  constexpr size_t kBatch = kDefaultBlockBytes / kRecordBytes;
  for (;;) {
    size_t got = 0;
    const size_t old = out->size();
    out->resize(old + kBatch);
    TWRS_RETURN_IF_ERROR(reader.Read(out->data() + old, kBatch, &got));
    out->resize(old + got);
    if (got == 0) return Status::OK();
  }
}

Status WriteAllRecords(Env* env, const std::string& path,
                       const std::vector<Key>& keys) {
  RecordWriter writer(env, path);
  TWRS_RETURN_IF_ERROR(writer.status());
  TWRS_RETURN_IF_ERROR(writer.AppendBatch(keys.data(), keys.size()));
  return writer.Finish();
}

}  // namespace twrs
