#include "io/counting_env.h"

namespace twrs {

namespace {

void Add(std::atomic<uint64_t>* counter, std::atomic<uint64_t>* mirror,
         uint64_t n) {
  counter->fetch_add(n, std::memory_order_relaxed);
  if (mirror != nullptr) mirror->fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

void CountingEnv::After(const IoOp& op, const Status& status) {
  if (!status.ok()) return;
  if (op.kind == IoOpKind::kRead) {
    Add(&bytes_read_, read_mirror_, op.bytes);
  } else if (op.kind == IoOpKind::kWrite) {
    Add(&bytes_written_, write_mirror_, op.bytes);
  } else if (op.kind == IoOpKind::kOpen && op.path == watched_path_ &&
             (op.opened_by == OpenMethod::kNewWritableFile ||
              op.opened_by == OpenMethod::kNewRandomRWFile)) {
    watched_created_.store(true, std::memory_order_relaxed);
  }
}

}  // namespace twrs
