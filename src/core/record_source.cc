#include "core/record_source.h"

namespace twrs {

Status RecordSource::Read(Key* out, size_t cap, size_t* n) {
  size_t filled = std::min(cap, ahead_end_ - ahead_pos_);
  if (filled > 0) {
    std::copy_n(ahead_.get() + ahead_pos_, filled, out);
    ahead_pos_ += filled;
  }
  while (filled < cap && status_.ok()) {
    size_t got = 0;
    status_ = ReadSome(out + filled, cap - filled, &got);
    filled += got;
    if (got == 0) break;
  }
  *n = filled;
  return status_;
}

bool RecordSource::Refill() {
  if (!ahead_) ahead_ = std::make_unique<Key[]>(kReadBatch);
  ahead_pos_ = 0;
  ahead_end_ = 0;
  // status_ keeps the error for status(); the records before it are served.
  TWRS_IGNORE_STATUS(Read(ahead_.get(), kReadBatch, &ahead_end_));
  return ahead_end_ > 0;
}

}  // namespace twrs
