#include "io/sim_disk_env.h"

#include <chrono>
#include <thread>

namespace twrs {

void DiskModel::Access(uint64_t file_id, uint64_t offset, uint64_t n) {
  double access_seconds = 0.0;
  {
    MutexLock lock(&mu_);
    const bool forward_contiguous =
        file_id == last_file_ && offset == last_end_offset_;
    const bool backward_contiguous =
        file_id == last_file_ && offset + n == last_start_offset_;
    if (!forward_contiguous && !backward_contiguous) {
      ++seeks_;
      access_seconds += config_.seek_seconds;
    }
    bytes_ += n;
    last_file_ = file_id;
    last_start_offset_ = offset;
    last_end_offset_ = offset + n;
    access_seconds +=
        static_cast<double>(n) / config_.bandwidth_bytes_per_second;
  }
  if (config_.realtime) {
    // Sleep outside the lock so concurrent accesses emulate a device that
    // overlaps with the CPU, not one serialized behind the accounting.
    std::this_thread::sleep_for(std::chrono::duration<double>(access_seconds));
  }
}

double DiskModel::SimulatedSeconds() const {
  MutexLock lock(&mu_);
  return static_cast<double>(seeks_) * config_.seek_seconds +
         static_cast<double>(bytes_) / config_.bandwidth_bytes_per_second;
}

void DiskModel::Reset() {
  MutexLock lock(&mu_);
  seeks_ = 0;
  bytes_ = 0;
  last_file_ = UINT64_MAX;
  last_start_offset_ = 0;
  last_end_offset_ = 0;
}

void SimDiskEnv::Charge(const IoOp& op) {
  uint64_t file_id = 0;
  {
    MutexLock lock(&file_ids_mu_);
    file_id = file_ids_.try_emplace(op.path, file_ids_.size()).first->second;
  }
  model_.Access(file_id, op.offset, op.bytes);
}

}  // namespace twrs
