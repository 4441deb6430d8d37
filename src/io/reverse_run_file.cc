#include "io/reverse_run_file.h"

#include <algorithm>
#include <cstring>

namespace twrs {

namespace {

// "2WRSREV1" little-endian.
constexpr uint64_t kMagic = 0x3156455253525732ULL;

// Header field offsets (all fields are little-endian uint64).
constexpr uint64_t kOffMagic = 0;
constexpr uint64_t kOffFileIndex = 8;
constexpr uint64_t kOffPagesPerFile = 16;
constexpr uint64_t kOffPageBytes = 24;
constexpr uint64_t kOffRecordCount = 32;
constexpr uint64_t kOffStartPage = 40;
constexpr uint64_t kOffStartOffset = 48;
constexpr uint64_t kOffTotalFiles = 56;
constexpr uint64_t kHeaderBytes = 64;

void PutU64(uint8_t* buf, uint64_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) buf[off + i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t GetU64(const uint8_t* buf, uint64_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf[off + i]) << (8 * i);
  return v;
}

}  // namespace

std::string ReverseRunWriter::FileName(const std::string& base_path,
                                       uint64_t index) {
  return base_path + "." + std::to_string(index);
}

ReverseRunWriter::ReverseRunWriter(Env* env, std::string base_path,
                                   ReverseRunFileOptions options)
    : env_(env), base_path_(std::move(base_path)), options_(options) {
  if (options_.page_bytes < kHeaderBytes ||
      options_.page_bytes % kRecordBytes != 0) {
    status_ = Status::InvalidArgument(
        "page_bytes must be >= 64 and a multiple of the record size");
    return;
  }
  if (options_.pages_per_file < 2) {
    status_ = Status::InvalidArgument(
        "pages_per_file must leave room for the header page");
    return;
  }
  page_.resize(options_.page_bytes);
}

ReverseRunWriter::~ReverseRunWriter() {
  // Callers that need the flush outcome call Finish() themselves; by the
  // time the destructor runs there is nowhere left to report it.
  if (!finished_) TWRS_IGNORE_STATUS(Finish());
}

Status ReverseRunWriter::OpenNextFile() {
  TWRS_RETURN_IF_ERROR(
      env_->NewRandomRWFile(FileName(base_path_, file_index_), &file_));
  current_page_ = options_.pages_per_file - 1;
  page_pos_ = options_.page_bytes;
  file_record_count_ = 0;
  file_open_ = true;
  return Status::OK();
}

Status ReverseRunWriter::FlushPage(uint64_t page, bool partial) {
  if (partial) {
    // The unused head of the page must not contain stale data.
    std::memset(page_.data(), 0, page_pos_);
  }
  return file_->WriteAt(page * options_.page_bytes, page_.data(),
                        options_.page_bytes);
}

Status ReverseRunWriter::FinalizeCurrentFile() {
  uint64_t start_page;
  uint64_t start_offset;
  if (page_pos_ == options_.page_bytes) {
    // The in-progress page is empty: data begins at the next page up.
    start_page = current_page_ + 1;
    start_offset = 0;
  } else {
    TWRS_RETURN_IF_ERROR(FlushPage(current_page_, /*partial=*/true));
    start_page = current_page_;
    start_offset = page_pos_;
  }
  uint8_t header[kHeaderBytes];
  std::memset(header, 0, sizeof(header));
  PutU64(header, kOffMagic, kMagic);
  PutU64(header, kOffFileIndex, file_index_);
  PutU64(header, kOffPagesPerFile, options_.pages_per_file);
  PutU64(header, kOffPageBytes, options_.page_bytes);
  PutU64(header, kOffRecordCount, file_record_count_);
  PutU64(header, kOffStartPage, start_page);
  PutU64(header, kOffStartOffset, start_offset);
  PutU64(header, kOffTotalFiles, 0);  // patched into file 0 by Finish()
  TWRS_RETURN_IF_ERROR(file_->WriteAt(0, header, sizeof(header)));
  TWRS_RETURN_IF_ERROR(file_->Close());
  file_.reset();
  file_open_ = false;
  ++file_index_;
  return Status::OK();
}

Status ReverseRunWriter::Append(Key key) {
  TWRS_RETURN_IF_ERROR(status_);
  if (finished_) {
    return Status::InvalidArgument("Append after Finish");
  }
  if (has_last_key_ && key > last_key_) {
    status_ = Status::InvalidArgument(
        "reverse run stream keys must be non-increasing");
    return status_;
  }
  has_last_key_ = true;
  last_key_ = key;
  if (!file_open_) {
    status_ = OpenNextFile();
    TWRS_RETURN_IF_ERROR(status_);
  }
  page_pos_ -= kRecordBytes;
  EncodeKey(key, page_.data() + page_pos_);
  ++file_record_count_;
  ++count_;
  if (page_pos_ == 0) TWRS_RETURN_IF_ERROR(AdvancePage());
  return Status::OK();
}

Status ReverseRunWriter::AppendBatch(const Key* keys, size_t n) {
  TWRS_RETURN_IF_ERROR(status_);
  if (finished_) {
    return Status::InvalidArgument("Append after Finish");
  }
  if (n == 0) return Status::OK();
  Key prev = has_last_key_ ? last_key_ : keys[0];
  for (size_t i = 0; i < n; ++i) {
    if (keys[i] > prev) {
      status_ = Status::InvalidArgument(
          "reverse run stream keys must be non-increasing");
      return status_;
    }
    prev = keys[i];
  }
  has_last_key_ = true;
  last_key_ = keys[n - 1];
  size_t done = 0;
  while (done < n) {
    if (!file_open_) {
      status_ = OpenNextFile();
      TWRS_RETURN_IF_ERROR(status_);
    }
    // The page fills back to front: each key is encoded straight into the
    // next free slot below the last one, as Append does.
    const size_t take =
        std::min<size_t>(n - done, page_pos_ / kRecordBytes);
    uint8_t* slot = page_.data() + page_pos_;
    for (size_t i = 0; i < take; ++i) {
      slot -= kRecordBytes;
      EncodeKey(keys[done + i], slot);
    }
    page_pos_ -= take * kRecordBytes;
    file_record_count_ += take;
    count_ += take;
    done += take;
    if (page_pos_ == 0) TWRS_RETURN_IF_ERROR(AdvancePage());
  }
  return Status::OK();
}

Status ReverseRunWriter::AdvancePage() {
  status_ = FlushPage(current_page_, /*partial=*/false);
  TWRS_RETURN_IF_ERROR(status_);
  if (current_page_ == 1) {
    status_ = FinalizeCurrentFile();
  } else {
    --current_page_;
    page_pos_ = options_.page_bytes;
  }
  return status_;
}

Status ReverseRunWriter::Finish() {
  if (finished_) return status_;
  finished_ = true;
  TWRS_RETURN_IF_ERROR(status_);
  if (file_open_) {
    if (file_record_count_ == 0 && file_index_ > 0) {
      // An opened-but-empty trailing file: close and remove it.
      TWRS_RETURN_IF_ERROR(file_->Close());
      file_.reset();
      file_open_ = false;
      TWRS_RETURN_IF_ERROR(
          env_->RemoveFile(FileName(base_path_, file_index_)));
    } else {
      status_ = FinalizeCurrentFile();
      TWRS_RETURN_IF_ERROR(status_);
    }
  }
  if (file_index_ > 0) {
    // Patch the total file count into file 0's header so the stream is
    // self-describing (Appendix A's "number of files" field).
    std::unique_ptr<RandomRWFile> first;
    status_ = env_->ReopenRandomRWFile(FileName(base_path_, 0), &first);
    TWRS_RETURN_IF_ERROR(status_);
    uint8_t buf[8];
    PutU64(buf, 0, file_index_);
    status_ = first->WriteAt(kOffTotalFiles, buf, sizeof(buf));
    TWRS_RETURN_IF_ERROR(status_);
    status_ = first->Close();
  }
  return status_;
}

ReverseRunReader::ReverseRunReader(Env* env, std::string base_path,
                                   uint64_t num_files, size_t buffer_bytes)
    : env_(env), base_path_(std::move(base_path)) {
  size_t records = std::max<size_t>(1, buffer_bytes / kRecordBytes);
  buffer_.resize(records * kRecordBytes);
  num_files_ = num_files;
  if (num_files_ == 0) {
    // Discover the count from file 0's header, if the stream exists at all.
    const std::string first = ReverseRunWriter::FileName(base_path_, 0);
    if (!env_->FileExists(first)) return;  // empty stream
    std::unique_ptr<SequentialFile> f;
    status_ = env_->NewSequentialFile(first, &f);
    if (!status_.ok()) return;
    uint8_t header[64];
    size_t got = 0;
    status_ = f->Read(header, sizeof(header), &got);
    if (!status_.ok()) return;
    if (got < sizeof(header) || GetU64(header, kOffMagic) != kMagic) {
      status_ = Status::Corruption("bad reverse run file header: " + first);
      return;
    }
    num_files_ = GetU64(header, kOffTotalFiles);
    if (num_files_ == 0) {
      status_ = Status::Corruption("unfinished reverse run stream: " + first);
      return;
    }
  }
  next_file_ = num_files_;
}

Status ReverseRunReader::OpenFile(uint64_t index) {
  const std::string name = ReverseRunWriter::FileName(base_path_, index);
  TWRS_RETURN_IF_ERROR(env_->NewSequentialFile(name, &file_));
  uint8_t header[64];
  size_t got = 0;
  TWRS_RETURN_IF_ERROR(file_->Read(header, sizeof(header), &got));
  if (got < sizeof(header) || GetU64(header, kOffMagic) != kMagic) {
    return Status::Corruption("bad reverse run file header: " + name);
  }
  const uint64_t page_bytes = GetU64(header, kOffPageBytes);
  const uint64_t start_page = GetU64(header, kOffStartPage);
  const uint64_t start_offset = GetU64(header, kOffStartOffset);
  remaining_in_file_ = GetU64(header, kOffRecordCount);
  const uint64_t data_start = start_page * page_bytes + start_offset;
  TWRS_RETURN_IF_ERROR(file_->Skip(data_start - sizeof(header)));
  buffer_size_ = 0;
  buffer_pos_ = 0;
  return Status::OK();
}

Status ReverseRunReader::FillBuffer(bool* eof) {
  TWRS_RETURN_IF_ERROR(status_);
  *eof = false;
  while (buffer_pos_ == buffer_size_) {
    if (remaining_in_file_ == 0) {
      if (next_file_ == 0) {
        *eof = true;
        return Status::OK();
      }
      --next_file_;
      status_ = OpenFile(next_file_);
      TWRS_RETURN_IF_ERROR(status_);
      continue;
    }
    const uint64_t want = std::min<uint64_t>(
        buffer_.size(), remaining_in_file_ * kRecordBytes);
    size_t got = 0;
    status_ = file_->Read(buffer_.data(), want, &got);
    TWRS_RETURN_IF_ERROR(status_);
    if (got < want || got % kRecordBytes != 0) {
      status_ = Status::Corruption("truncated reverse run file");
      return status_;
    }
    buffer_size_ = got;
    buffer_pos_ = 0;
    remaining_in_file_ -= got / kRecordBytes;
  }
  return Status::OK();
}

Status ReverseRunReader::Next(Key* key, bool* eof) {
  TWRS_RETURN_IF_ERROR(FillBuffer(eof));
  if (*eof) return Status::OK();
  *key = DecodeKey(buffer_.data() + buffer_pos_);
  buffer_pos_ += kRecordBytes;
  return Status::OK();
}

Status ReverseRunReader::Read(Key* out, size_t max, size_t* got) {
  *got = 0;
  bool eof = false;
  TWRS_RETURN_IF_ERROR(FillBuffer(&eof));
  if (eof) return Status::OK();
  const size_t take =
      std::min(max, (buffer_size_ - buffer_pos_) / kRecordBytes);
  DecodeKeysBatch(buffer_.data() + buffer_pos_, take, out);
  buffer_pos_ += take * kRecordBytes;
  *got = take;
  return Status::OK();
}

Status ReverseRunReader::SkipRecords(uint64_t n) {
  TWRS_RETURN_IF_ERROR(status_);
  while (n > 0) {
    const uint64_t buffered = (buffer_size_ - buffer_pos_) / kRecordBytes;
    if (buffered > 0) {
      const uint64_t take = std::min(n, buffered);
      buffer_pos_ += static_cast<size_t>(take) * kRecordBytes;
      n -= take;
      continue;
    }
    if (remaining_in_file_ == 0) {
      if (next_file_ == 0) return Status::OK();  // past EOF: no-op
      --next_file_;
      status_ = OpenFile(next_file_);
      TWRS_RETURN_IF_ERROR(status_);
      continue;
    }
    // The open file's unread data is contiguous from the current position,
    // so any in-file skip is one Skip on the handle — no data reads.
    const uint64_t take = std::min(n, remaining_in_file_);
    status_ = file_->Skip(take * kRecordBytes);
    TWRS_RETURN_IF_ERROR(status_);
    remaining_in_file_ -= take;
    n -= take;
  }
  return Status::OK();
}

}  // namespace twrs
