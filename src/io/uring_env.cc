#include "io/uring_env.h"

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "util/mutex.h"

namespace twrs {

// The metadata plumbing is identical with and without kernel support;
// only the data-path file handles (and the ring pool behind them) differ,
// so the constructor and destructor live in the per-branch sections where
// IoUringRingPool is a complete type.

IoUringEnv::IoUringEnv() : IoUringEnv(IoUringEnvOptions()) {}

bool IoUringEnv::FileExists(const std::string& path) {
  return metadata_env_.FileExists(path);
}

Status IoUringEnv::RemoveFile(const std::string& path) {
  return metadata_env_.RemoveFile(path);
}

Status IoUringEnv::GetFileSize(const std::string& path, uint64_t* size) {
  return metadata_env_.GetFileSize(path, size);
}

Status IoUringEnv::CreateDirIfMissing(const std::string& path) {
  return metadata_env_.CreateDirIfMissing(path);
}

Status IoUringEnv::RemoveDir(const std::string& path) {
  return metadata_env_.RemoveDir(path);
}

Status IoUringEnv::ListDir(const std::string& path,
                           std::vector<std::string>* names) {
  return metadata_env_.ListDir(path, names);
}

}  // namespace twrs

#if defined(TWRS_WITH_URING)

#include <fcntl.h>
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "obs/latency_histogram.h"

namespace twrs {
namespace {

// ------------------------------------------------------------- syscalls
// Raw syscall wrappers: the kernel UAPI header ships everywhere, liburing
// does not, and the three entry points are trivial.

int SysIoUringSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                  min_complete, flags, nullptr, 0));
}

int SysIoUringRegister(int ring_fd, unsigned opcode, const void* arg,
                       unsigned nr_args) {
  return static_cast<int>(
      syscall(__NR_io_uring_register, ring_fd, opcode, arg, nr_args));
}

// See posix_env.cc: overload resolution picks the right strerror_r flavor.
inline const char* StrerrorResult(int /*ret*/, const char* buf) { return buf; }
inline const char* StrerrorResult(const char* ret, const char* /*buf*/) {
  return ret;
}

std::string ErrnoString(int err) {
  char buf[128];
  buf[0] = '\0';
  return StrerrorResult(::strerror_r(err, buf, sizeof(buf)), buf);
}

Status ErrnoStatus(const std::string& context, int err) {
  return Status::IOError(context + ": " + ErrnoString(err));
}

// ------------------------------------------------------------- counters

std::atomic<uint64_t> g_sqes_submitted{0};
std::atomic<uint64_t> g_cqes_completed{0};
std::atomic<uint64_t> g_short_ios{0};
std::atomic<uint64_t> g_rings_created{0};
std::atomic<uint64_t> g_ring_reuses{0};

// Raw SQE counts consumed per io_uring_enter (dimensionless, not time).
LatencyHistogram& BatchLenHistogram() {
  static LatencyHistogram* const histogram = new LatencyHistogram();
  return *histogram;
}

// ------------------------------------------------------------- alignment

constexpr size_t kDirectAlign = 4096;

constexpr uint64_t AlignDown(uint64_t v) { return v & ~(kDirectAlign - 1); }
constexpr uint64_t AlignUp(uint64_t v) {
  return (v + kDirectAlign - 1) & ~(kDirectAlign - 1);
}

struct FreeDeleter {
  void operator()(uint8_t* p) const { ::free(p); }  // NOLINT(cppcoreguidelines-no-malloc)
};
using AlignedBuffer = std::unique_ptr<uint8_t, FreeDeleter>;

AlignedBuffer AllocAligned(size_t n) {
  void* p = nullptr;
  if (::posix_memalign(&p, kDirectAlign, n) != 0) return nullptr;
  return AlignedBuffer(static_cast<uint8_t*>(p));
}

// ------------------------------------------------------------------ Ring
// One submission/completion queue pair. Single-threaded like the file
// handle that owns it: the handle preps SQEs, submits them in batches, and
// reaps CQEs; the only other party is the kernel, synchronized with the
// acquire/release ring-index protocol from io_uring.h.
class Ring {
 public:
  Ring() = default;

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  ~Ring() { Destroy(); }

  Status Init(unsigned entries) {
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    ring_fd_ = SysIoUringSetup(entries, &params);
    if (ring_fd_ < 0) return ErrnoStatus("io_uring_setup", errno);
    entries_ = params.sq_entries;

    size_t sq_len = params.sq_off.array + params.sq_entries * sizeof(unsigned);
    size_t cq_len =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    single_mmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap_) {
      sq_len = cq_len = sq_len > cq_len ? sq_len : cq_len;
    }
    void* sq = ::mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq == MAP_FAILED) {
      const Status s = ErrnoStatus("mmap io_uring sq", errno);
      Destroy();
      return s;
    }
    sq_ptr_ = static_cast<uint8_t*>(sq);
    sq_map_len_ = sq_len;
    if (single_mmap_) {
      cq_ptr_ = sq_ptr_;
      cq_map_len_ = 0;  // unmapped together with the SQ ring
    } else {
      void* cq =
          ::mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
      if (cq == MAP_FAILED) {
        const Status s = ErrnoStatus("mmap io_uring cq", errno);
        Destroy();
        return s;
      }
      cq_ptr_ = static_cast<uint8_t*>(cq);
      cq_map_len_ = cq_len;
    }
    const size_t sqes_len = params.sq_entries * sizeof(io_uring_sqe);
    void* sqes = ::mmap(nullptr, sqes_len, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
    if (sqes == MAP_FAILED) {
      const Status s = ErrnoStatus("mmap io_uring sqes", errno);
      Destroy();
      return s;
    }
    sqes_ = static_cast<io_uring_sqe*>(sqes);
    sqes_map_len_ = sqes_len;

    sq_head_ = RingField(sq_ptr_, params.sq_off.head);
    sq_tail_ = RingField(sq_ptr_, params.sq_off.tail);
    sq_mask_ = *RingField(sq_ptr_, params.sq_off.ring_mask);
    sq_array_ = RingField(sq_ptr_, params.sq_off.array);
    cq_head_ = RingField(cq_ptr_, params.cq_off.head);
    cq_tail_ = RingField(cq_ptr_, params.cq_off.tail);
    cq_mask_ = *RingField(cq_ptr_, params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq_ptr_ + params.cq_off.cqes);
    return Status::OK();
  }

  void Destroy() {
    if (sqes_ != nullptr) ::munmap(sqes_, sqes_map_len_);
    if (cq_map_len_ != 0) ::munmap(cq_ptr_, cq_map_len_);
    if (sq_ptr_ != nullptr) ::munmap(sq_ptr_, sq_map_len_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
    sqes_ = nullptr;
    cq_ptr_ = nullptr;
    sq_ptr_ = nullptr;
    ring_fd_ = -1;
  }

  int fd() const { return ring_fd_; }
  unsigned inflight() const { return inflight_; }
  unsigned pending() const { return pending_; }

  /// Claims and zeroes the next SQE slot. The per-handle pipelines are
  /// sized well below the ring, so a full queue indicates a logic error.
  io_uring_sqe* PrepSqe() {
    const unsigned tail = *sq_tail_;
    const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
    if (tail - head >= entries_) return nullptr;
    io_uring_sqe* sqe = &sqes_[tail & sq_mask_];
    std::memset(sqe, 0, sizeof(*sqe));
    sq_array_[tail & sq_mask_] = tail & sq_mask_;
    __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
    ++pending_;
    return sqe;
  }

  /// Submits every prepped SQE without waiting for completions.
  Status Submit() { return Enter(0); }

  /// Pops one CQE if available.
  bool PopCqe(int64_t* res, uint64_t* user_data) {
    const unsigned head = *cq_head_;
    if (head == __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE)) return false;
    const io_uring_cqe& cqe = cqes_[head & cq_mask_];
    *res = cqe.res;
    *user_data = cqe.user_data;
    __atomic_store_n(cq_head_, head + 1, __ATOMIC_RELEASE);
    --inflight_;
    g_cqes_completed.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Pops one CQE, submitting pending SQEs and blocking until one arrives.
  Status WaitCqe(int64_t* res, uint64_t* user_data) {
    while (!PopCqe(res, user_data)) {
      if (pending_ == 0 && inflight_ == 0) {
        return Status::IOError("io_uring wait with nothing in flight");
      }
      TWRS_RETURN_IF_ERROR(Enter(1));
    }
    return Status::OK();
  }

 private:
  static unsigned* RingField(uint8_t* base, uint32_t off) {
    return reinterpret_cast<unsigned*>(base + off);
  }

  Status Enter(unsigned wait_nr) {
    for (;;) {
      unsigned flags = wait_nr > 0 ? IORING_ENTER_GETEVENTS : 0;
      const int ret =
          SysIoUringEnter(ring_fd_, pending_, wait_nr, flags);
      if (ret < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("io_uring_enter", errno);
      }
      const unsigned consumed = static_cast<unsigned>(ret);
      if (consumed > 0) {
        g_sqes_submitted.fetch_add(consumed, std::memory_order_relaxed);
        BatchLenHistogram().Record(consumed);
        pending_ -= consumed;
        inflight_ += consumed;
      }
      // A partial submit (kernel resource pressure) leaves SQEs pending;
      // loop until everything is in flight.
      if (pending_ > 0) {
        wait_nr = 0;
        continue;
      }
      return Status::OK();
    }
  }

  int ring_fd_ = -1;
  unsigned entries_ = 0;
  unsigned pending_ = 0;   // prepped, not yet consumed by the kernel
  unsigned inflight_ = 0;  // consumed, completion not yet reaped

  uint8_t* sq_ptr_ = nullptr;
  size_t sq_map_len_ = 0;
  uint8_t* cq_ptr_ = nullptr;
  size_t cq_map_len_ = 0;  // 0 when the CQ aliases the SQ mapping
  bool single_mmap_ = false;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_map_len_ = 0;

  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
};

/// Registers `buffers` (each `len` bytes) as fixed buffers on `ring`.
/// Returns false when the kernel refuses (RLIMIT_MEMLOCK, EPERM in
/// sandboxes) — callers then fall back to plain READ/WRITE opcodes.
bool RegisterBuffers(Ring* ring, uint8_t* const* buffers, size_t count,
                     size_t len) {
  std::vector<iovec> iovecs(count);
  for (size_t i = 0; i < count; ++i) {
    iovecs[i].iov_base = buffers[i];
    iovecs[i].iov_len = len;
  }
  return SysIoUringRegister(ring->fd(), IORING_REGISTER_BUFFERS, iovecs.data(),
                            static_cast<unsigned>(count)) == 0;
}

// ---------------------------------------------------------- ring pooling

/// Every handle type moves data through two buffer_bytes-sized transfer
/// buffers: double-buffered appends, two read-ahead blocks, or two
/// positioned-write slots. The uniform shape is what makes one pooled
/// ring serve any handle.
constexpr unsigned kPooledBuffers = 2;

/// A ring plus its two registered transfer buffers, recycled across file
/// handles. Creating this per open is not cheap relative to the engine's
/// file sizes: io_uring_setup, three ring mmaps, faulting in the buffers
/// and the IORING_REGISTER_BUFFERS page pinning together cost a few
/// hundred microseconds — more than writing an entire small run file
/// through the page cache — so the pool pays it once per concurrent
/// handle instead of once per file.
struct PooledRing {
  Ring ring;
  AlignedBuffer buffers[kPooledBuffers];
  bool fixed = false;  // buffers registered as fixed on this ring

  Status Init(const IoUringEnvOptions& opt) {
    TWRS_RETURN_IF_ERROR(ring.Init(opt.ring_entries));
    const size_t len = AlignDown(opt.buffer_bytes);
    uint8_t* raw[kPooledBuffers];
    for (unsigned i = 0; i < kPooledBuffers; ++i) {
      buffers[i] = AllocAligned(len);
      if (buffers[i] == nullptr) {
        return Status::IOError("cannot allocate io_uring transfer buffers");
      }
      raw[i] = buffers[i].get();
    }
    if (opt.register_buffers) {
      fixed = RegisterBuffers(&ring, raw, kPooledBuffers, len);
    }
    g_rings_created.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  uint8_t* buf(unsigned i) { return buffers[i].get(); }
};

/// Free list of quiescent rings, one pool per Env. Thread-safe: parallel
/// run generators and partial merges open handles from several threads
/// at once.
class RingPool {
 public:
  explicit RingPool(const IoUringEnvOptions& options) : options_(options) {}

  Status Acquire(std::unique_ptr<PooledRing>* out) {
    {
      MutexLock lock(&mu_);
      if (!free_.empty()) {
        *out = std::move(free_.back());
        free_.pop_back();
        g_ring_reuses.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
    }
    auto fresh = std::make_unique<PooledRing>();
    TWRS_RETURN_IF_ERROR(fresh->Init(options_));
    *out = std::move(fresh);
    return Status::OK();
  }

  /// Returns a ring to the pool. Rings with anything still pending or in
  /// flight (error-path closes) are destroyed instead of reused, as is
  /// everything beyond the cap. The cap must cover the peak concurrent
  /// handle count of a merge pass (fan-in readers + the output writer),
  /// or every pass re-creates the excess rings; registration degrades
  /// gracefully per ring once pinned buffers hit RLIMIT_MEMLOCK, so a
  /// roomy cap costs memory, not correctness.
  void Release(std::unique_ptr<PooledRing> ring) {
    if (ring == nullptr) return;
    if (ring->ring.inflight() != 0 || ring->ring.pending() != 0) return;
    MutexLock lock(&mu_);
    if (free_.size() < kMaxFree) free_.push_back(std::move(ring));
  }

 private:
  static constexpr size_t kMaxFree = 16;

  const IoUringEnvOptions options_;
  Mutex mu_;
  std::vector<std::unique_ptr<PooledRing>> free_ TWRS_GUARDED_BY(mu_);
};

// ------------------------------------------------- UringWritableFile
// Sequential appends with kernel-overlapped double buffering: while the
// caller fills one buffer, the previous one is being written by the
// kernel. Replaces AsyncWritableFile's pump thread + copy with a single
// SQE per buffer rotation.
class UringWritableFile : public WritableFile {
 public:
  UringWritableFile(int fd, std::string path, const IoUringEnvOptions& opt,
                    bool o_direct, RingPool* pool)
      : fd_(fd),
        path_(std::move(path)),
        buffer_bytes_(AlignDown(opt.buffer_bytes)),
        o_direct_(o_direct),
        pool_(pool) {}

  ~UringWritableFile() override {
    // Errors from a destructor-time close have nowhere to go; callers that
    // care invoked Close()/Sync() on the checked path already.
    TWRS_IGNORE_STATUS(Close());
  }

  Status Init() {
    TWRS_RETURN_IF_ERROR(pool_->Acquire(&pooled_));
    ring_ = &pooled_->ring;
    fixed_ = pooled_->fixed;
    return Status::OK();
  }

  Status Append(const void* data, size_t n) override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("append to closed " + path_);
    if (tail_flushed_) {
      // O_DIRECT only: the padded tail block is on disk and the write
      // position is no longer block-aligned.
      return Status::IOError("append after O_DIRECT Sync on " + path_);
    }
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (n > 0) {
      const size_t take =
          n < buffer_bytes_ - active_used_ ? n : buffer_bytes_ - active_used_;
      std::memcpy(pooled_->buf(active_) + active_used_, p, take);
      active_used_ += take;
      p += take;
      n -= take;
      if (active_used_ == buffer_bytes_) {
        status_ = RotateAndSubmit(buffer_bytes_, /*eager=*/true);
        if (!status_.ok()) return status_;
      }
    }
    return Status::OK();
  }

  Status Sync() override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("sync of closed " + path_);
    status_ = FlushTail();
    if (status_.ok()) status_ = WaitInflight();
    if (status_.ok()) status_ = TruncatePadding();
    if (status_.ok()) status_ = Fsync();
    return status_;
  }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    Status s = status_;
    if (pooled_ != nullptr) {
      if (s.ok()) s = FlushTail();
      if (s.ok()) s = WaitInflight();
      if (s.ok()) s = TruncatePadding();
      if (!s.ok()) {
        // Still reap outstanding completions so the kernel is not writing
        // from buffers the pool is about to hand to another handle.
        while (ring_->inflight() > 0) {
          int64_t res = 0;
          uint64_t user_data = 0;
          if (!ring_->WaitCqe(&res, &user_data).ok()) break;
        }
      }
      ring_ = nullptr;
      pool_->Release(std::move(pooled_));
    }
    if (fd_ >= 0 && ::close(fd_) != 0 && s.ok()) {
      s = ErrnoStatus("close " + path_, errno);
    }
    fd_ = -1;
    if (!s.ok() && status_.ok()) status_ = s;
    return s;
  }

 private:
  /// Submits the active buffer's first `len` bytes at the current file
  /// offset and swaps buffers, first draining the previous submission.
  /// `eager` controls whether the SQE is pushed to the kernel now (the
  /// mid-stream case, where the write must overlap the caller refilling
  /// the other buffer) or left pending for the next blocking WaitCqe to
  /// carry in its own io_uring_enter (the tail-flush case, where Sync or
  /// Close waits immediately anyway — one syscall instead of two).
  Status RotateAndSubmit(size_t len, bool eager) {
    TWRS_RETURN_IF_ERROR(WaitInflight());
    inflight_buf_ = active_;
    inflight_off_ = file_offset_;
    inflight_len_ = len;
    inflight_done_ = 0;
    TWRS_RETURN_IF_ERROR(PrepWrite());
    if (eager) TWRS_RETURN_IF_ERROR(ring_->Submit());
    file_offset_ += len;
    active_ = 1 - active_;
    active_used_ = 0;
    return Status::OK();
  }

  /// Preps (without submitting) one write SQE for the unwritten remainder
  /// of the inflight buffer.
  Status PrepWrite() {
    io_uring_sqe* sqe = ring_->PrepSqe();
    if (sqe == nullptr) {
      return Status::IOError("io_uring submission queue full on " + path_);
    }
    sqe->fd = fd_;
    sqe->addr = reinterpret_cast<uint64_t>(pooled_->buf(inflight_buf_) +
                                           inflight_done_);
    sqe->len = static_cast<uint32_t>(inflight_len_ - inflight_done_);
    sqe->off = inflight_off_ + inflight_done_;
    sqe->user_data = 1;
    if (fixed_) {
      sqe->opcode = IORING_OP_WRITE_FIXED;
      sqe->buf_index = static_cast<uint16_t>(inflight_buf_);
    } else {
      sqe->opcode = IORING_OP_WRITE;
    }
    return Status::OK();
  }

  /// Reaps the inflight write to completion, resubmitting short writes.
  /// Resubmissions stay pending: the WaitCqe at the top of the loop
  /// submits them inside its blocking enter.
  Status WaitInflight() {
    while (inflight_len_ > inflight_done_) {
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(ring_->WaitCqe(&res, &user_data));
      if (res == -EINTR || res == -EAGAIN) {
        TWRS_RETURN_IF_ERROR(PrepWrite());
        continue;
      }
      if (res < 0) {
        return ErrnoStatus("io_uring write " + path_,
                           static_cast<int>(-res));
      }
      if (res == 0) {
        return Status::IOError("zero-length io_uring write on " + path_);
      }
      inflight_done_ += static_cast<size_t>(res);
      if (inflight_done_ < inflight_len_) {
        g_short_ios.fetch_add(1, std::memory_order_relaxed);
        TWRS_RETURN_IF_ERROR(PrepWrite());
      }
    }
    return Status::OK();
  }

  /// Flushes the partial active buffer. Under O_DIRECT the tail is padded
  /// to a whole block (TruncatePadding restores the logical size).
  Status FlushTail() {
    if (active_used_ == 0) return Status::OK();
    size_t len = active_used_;
    if (o_direct_) {
      const size_t padded = AlignUp(len);
      std::memset(pooled_->buf(active_) + len, 0, padded - len);
      logical_size_ = file_offset_ + len;
      padded_tail_ = padded != len;
      tail_flushed_ = padded_tail_;
      len = padded;
    }
    // Sync/Close wait right after this; the pending SQE rides along in
    // that wait's enter.
    return RotateAndSubmit(len, /*eager=*/false);
  }

  Status TruncatePadding() {
    if (!padded_tail_) return Status::OK();
    padded_tail_ = false;
    if (::ftruncate(fd_, static_cast<off_t>(logical_size_)) != 0) {
      return ErrnoStatus("ftruncate " + path_, errno);
    }
    return Status::OK();
  }

  Status PrepFsync() {
    io_uring_sqe* sqe = ring_->PrepSqe();
    if (sqe == nullptr) {
      return Status::IOError("io_uring submission queue full on " + path_);
    }
    sqe->opcode = IORING_OP_FSYNC;
    sqe->fd = fd_;
    sqe->fsync_flags = IORING_FSYNC_DATASYNC;
    sqe->user_data = 2;
    return Status::OK();
  }

  Status Fsync() {
    TWRS_RETURN_IF_ERROR(PrepFsync());
    for (;;) {
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(ring_->WaitCqe(&res, &user_data));
      if (res == -EINTR) {
        // Resubmit; nothing else can be in flight here.
        TWRS_RETURN_IF_ERROR(PrepFsync());
        continue;
      }
      if (res < 0) {
        return ErrnoStatus("io_uring fsync " + path_,
                           static_cast<int>(-res));
      }
      return Status::OK();
    }
  }

  int fd_;
  std::string path_;
  const size_t buffer_bytes_;
  const bool o_direct_;

  RingPool* const pool_;
  std::unique_ptr<PooledRing> pooled_;
  Ring* ring_ = nullptr;  // &pooled_->ring while the handle is open
  bool fixed_ = false;

  unsigned active_ = 0;      // buffer the caller is filling
  size_t active_used_ = 0;   // bytes in the active buffer
  unsigned inflight_buf_ = 1;
  uint64_t inflight_off_ = 0;
  size_t inflight_len_ = 0;   // total bytes of the inflight submission
  size_t inflight_done_ = 0;  // bytes the kernel confirmed so far
  uint64_t file_offset_ = 0;  // where the next flush lands

  uint64_t logical_size_ = 0;  // O_DIRECT: true size behind a padded tail
  bool padded_tail_ = false;
  bool tail_flushed_ = false;

  bool closed_ = false;
  Status status_;
};

// ---------------------------------------------- UringSequentialFile
// Sequential reads fed by kernel read-ahead, replacing
// PrefetchingSequentialFile's pump thread + queue. The read-ahead is
// demand-paced: the first block is sized to the first Read request and no
// ahead block is issued until the caller fully drains kStreamDrains blocks
// (proving a streaming scan), after which two full-sized reads stay in
// flight. Pacing matters because a buffered io_uring read of pages not in
// the cache is punted to an io-wq worker (a forced context switch), and
// the reverse-stream files this engine merges are sparse: a header page,
// a hole, then the data pages. An eager fixed-size window would read the
// hole — punting twice per file — only for the caller to Skip past it.
class UringSequentialFile : public SequentialFile {
 public:
  static constexpr unsigned kBlocks = 2;
  // Full block drains before the window opens to two blocks in flight.
  static constexpr unsigned kStreamDrains = 2;

  UringSequentialFile(int fd, std::string path, uint64_t file_size,
                      const IoUringEnvOptions& opt, RingPool* pool)
      : fd_(fd),
        path_(std::move(path)),
        block_bytes_(AlignDown(opt.buffer_bytes)),
        file_size_(file_size),
        pool_(pool) {}

  ~UringSequentialFile() override {
    if (pooled_ != nullptr) {
      DrainAllBestEffort();
      ring_ = nullptr;
      pool_->Release(std::move(pooled_));
    }
    if (fd_ >= 0) ::close(fd_);
  }

  Status Init() {
    TWRS_RETURN_IF_ERROR(pool_->Acquire(&pooled_));
    ring_ = &pooled_->ring;
    fixed_ = pooled_->fixed;
    for (unsigned i = 0; i < kBlocks; ++i) blocks_[i].buf = pooled_->buf(i);
    return Status::OK();
  }

  Status Read(void* out, size_t n, size_t* bytes_read) override {
    *bytes_read = 0;
    if (!status_.ok()) return status_;
    status_ = EnsureStarted(n);
    if (!status_.ok()) return status_;
    uint8_t* p = static_cast<uint8_t*>(out);
    size_t total = 0;
    while (total < n) {
      Block& front = blocks_[front_];
      if (!front.ready) {
        status_ = WaitForBlock(front_);
        if (!status_.ok()) return status_;
      }
      const size_t available = front.valid - front.pos;
      if (available == 0) {
        if (front.eof) break;  // end of file
        status_ = RecycleFront();
        if (!status_.ok()) return status_;
        continue;
      }
      const size_t take = n - total < available ? n - total : available;
      std::memcpy(p + total, front.buf + front.pos, take);
      front.pos += take;
      total += take;
    }
    *bytes_read = total;
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (!status_.ok()) return status_;
    if (!started_) {
      // The common pattern (RunCursor) skips to the segment start before
      // the first read: just move the submission origin.
      submit_off_ += n;
      return Status::OK();
    }
    // Discard everything buffered or in flight and restart at the new
    // logical position.
    status_ = DrainAll();
    if (!status_.ok()) return status_;
    const Block& front = blocks_[front_];
    const uint64_t logical = front.off + front.pos;
    for (Block& block : blocks_) {
      block.ready = false;
      block.valid = 0;
      block.pos = 0;
      block.want = 0;
      block.eof = false;
    }
    started_ = false;
    at_eof_ = false;
    front_ = 0;
    submit_off_ = logical + n;
    return Status::OK();
  }

 private:
  struct Block {
    uint8_t* buf = nullptr;  // borrowed from the pooled ring
    uint64_t off = 0;
    size_t want = 0;   // bytes requested
    size_t valid = 0;  // bytes delivered
    size_t pos = 0;    // bytes consumed by the caller
    bool ready = false;
    bool inflight = false;
    bool eof = false;  // the file ends inside (or before) this block
  };

  Status EnsureStarted(size_t first_request) {
    if (started_) return Status::OK();
    started_ = true;
    front_ = 0;
    drains_ = 0;
    ramp_ = first_request < 4096 ? 4096 : AlignUp(first_request);
    if (ramp_ > block_bytes_) ramp_ = block_bytes_;
    // One request-sized block, and it stays pending: the first
    // WaitForBlock submits it inside its blocking enter — one syscall per
    // open on this engine's many-small-run merges. Probe-then-Skip
    // callers (reverse-stream headers) never cost more than this block.
    return PrepBlock(front_);
  }

  /// Preps (without submitting) a read of block `b` at submit_off_. Reads
  /// are clamped to the open-time file size: asking for whole blocks past
  /// a small file's end would cost a short-read resubmission plus a
  /// zero-byte EOF confirmation per block — two kernel round trips this
  /// engine's many-small-run merges would pay per input file. Data
  /// appended after the open is not observed, matching the read-your-own
  /// closed-runs pattern every caller follows.
  Status PrepBlock(unsigned b) {
    Block& block = blocks_[b];
    block.off = submit_off_;
    block.valid = 0;
    block.pos = 0;
    block.ready = false;
    const uint64_t remaining =
        submit_off_ < file_size_ ? file_size_ - submit_off_ : 0;
    block.want =
        remaining < ramp_ ? static_cast<size_t>(remaining) : ramp_;
    block.eof = remaining <= ramp_;
    if (at_eof_ || block.want == 0) {
      // No more data: mark the block as an empty (EOF) block.
      block.ready = true;
      block.eof = true;
      block.want = 0;
      if (remaining == 0) at_eof_ = true;
      return Status::OK();
    }
    submit_off_ += block.want;
    TWRS_RETURN_IF_ERROR(PrepRead(b));
    block.inflight = true;
    return Status::OK();
  }

  /// One read SQE for the undelivered remainder of block `b`.
  Status PrepRead(unsigned b) {
    Block& block = blocks_[b];
    io_uring_sqe* sqe = ring_->PrepSqe();
    if (sqe == nullptr) {
      return Status::IOError("io_uring submission queue full on " + path_);
    }
    sqe->fd = fd_;
    sqe->addr = reinterpret_cast<uint64_t>(block.buf + block.valid);
    sqe->len = static_cast<uint32_t>(block.want - block.valid);
    sqe->off = block.off + block.valid;
    sqe->user_data = b;
    if (fixed_) {
      sqe->opcode = IORING_OP_READ_FIXED;
      sqe->buf_index = static_cast<uint16_t>(b);
    } else {
      sqe->opcode = IORING_OP_READ;
    }
    return Status::OK();
  }

  /// Reaps completions until block `b` is ready.
  Status WaitForBlock(unsigned b) {
    while (!blocks_[b].ready) {
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(ring_->WaitCqe(&res, &user_data));
      TWRS_RETURN_IF_ERROR(HandleCqe(static_cast<unsigned>(user_data), res));
    }
    return Status::OK();
  }

  Status HandleCqe(unsigned b, int64_t res) {
    Block& block = blocks_[b];
    block.inflight = false;
    if (res == -EINTR || res == -EAGAIN) {
      // Left pending; the enclosing wait loop's next WaitCqe submits it.
      TWRS_RETURN_IF_ERROR(PrepRead(b));
      block.inflight = true;
      return Status::OK();
    }
    if (res < 0) {
      return ErrnoStatus("io_uring read " + path_, static_cast<int>(-res));
    }
    if (res == 0) {
      // End of file at block.off + block.valid; the block is final.
      // Reads are clamped to the open-time size, so this only fires when
      // the file shrank under us.
      block.ready = true;
      block.eof = true;
      at_eof_ = true;
      return Status::OK();
    }
    block.valid += static_cast<size_t>(res);
    if (block.valid < block.want) {
      // Short read (a split transfer): resubmit the remainder, pending
      // until the enclosing wait loop's next WaitCqe.
      g_short_ios.fetch_add(1, std::memory_order_relaxed);
      TWRS_RETURN_IF_ERROR(PrepRead(b));
      block.inflight = true;
      return Status::OK();
    }
    block.ready = true;
    return Status::OK();
  }

  /// Refills the fully-consumed front block at the next file offset. Each
  /// drain doubles the block size up to block_bytes_; the kStreamDrains-th
  /// drain opens the window to two blocks in flight. Before that the
  /// refill stays pending (the next wait's enter submits it); once reading
  /// ahead, submission is eager so the kernel fills the ahead block while
  /// the caller copies out of the other.
  Status RecycleFront() {
    ++drains_;
    if (ramp_ < block_bytes_) {
      ramp_ = ramp_ * 2 < block_bytes_ ? ramp_ * 2 : block_bytes_;
    }
    TWRS_RETURN_IF_ERROR(PrepBlock(front_));
    if (drains_ < kStreamDrains) return Status::OK();
    if (drains_ == kStreamDrains) {
      // Streaming proven: issue the ahead block too. front_ stays on the
      // just-refilled block, which holds the lower offset.
      TWRS_RETURN_IF_ERROR(PrepBlock((front_ + 1) % kBlocks));
    } else {
      front_ = (front_ + 1) % kBlocks;
    }
    return ring_->Submit();
  }

  Status DrainAll() {
    while (ring_->inflight() > 0 || ring_->pending() > 0) {
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(ring_->WaitCqe(&res, &user_data));
      // Completions are recorded but shorts are not resubmitted: the data
      // is about to be discarded.
      const unsigned b = static_cast<unsigned>(user_data);
      if (b < kBlocks) blocks_[b].ready = true;
    }
    return Status::OK();
  }

  void DrainAllBestEffort() {
    while (ring_->inflight() > 0) {
      int64_t res = 0;
      uint64_t user_data = 0;
      if (!ring_->WaitCqe(&res, &user_data).ok()) break;
    }
  }

  int fd_;
  std::string path_;
  const size_t block_bytes_;
  const uint64_t file_size_;  // size at open; reads never go past it

  RingPool* const pool_;
  std::unique_ptr<PooledRing> pooled_;
  Ring* ring_ = nullptr;  // &pooled_->ring while the handle is open
  Block blocks_[kBlocks];
  bool fixed_ = false;

  bool started_ = false;
  bool at_eof_ = false;
  unsigned front_ = 0;
  uint64_t submit_off_ = 0;
  // Demand pacing: full drains since (re)start, and the current block
  // size, doubling per drain up to block_bytes_.
  unsigned drains_ = 0;
  size_t ramp_ = 0;

  Status status_;
};

// ------------------------------------------------ UringRandomRWFile
// Positioned writes submitted without blocking: WriteAt copies into one of
// two slots and returns; completions are reaped when slots are reused and
// on Sync/Close. Disjoint-range writers (RangeWritableFile) each own a handle
// (and pooled ring), so the partitioned output path runs fully overlapped
// with no pump threads.
class UringRandomRWFile : public RandomRWFile {
 public:
  static constexpr unsigned kSlots = kPooledBuffers;

  UringRandomRWFile(int fd, std::string path, const IoUringEnvOptions& opt,
                    RingPool* pool)
      : fd_(fd),
        path_(std::move(path)),
        slot_bytes_(AlignDown(opt.buffer_bytes)),
        pool_(pool) {}

  ~UringRandomRWFile() override { TWRS_IGNORE_STATUS(Close()); }

  Status Init() {
    TWRS_RETURN_IF_ERROR(pool_->Acquire(&pooled_));
    ring_ = &pooled_->ring;
    fixed_ = pooled_->fixed;
    for (unsigned i = 0; i < kSlots; ++i) slots_[i].buf = pooled_->buf(i);
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("write to closed " + path_);
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bool prepped = false;
    while (n > 0) {
      const size_t take = n < slot_bytes_ ? n : slot_bytes_;
      unsigned s = 0;
      status_ = AcquireSlot(&s);
      if (!status_.ok()) return status_;
      Slot& slot = slots_[s];
      std::memcpy(slot.buf, p, take);
      slot.off = offset;
      slot.len = take;
      slot.done = 0;
      slot.busy = true;
      status_ = PrepWrite(s);
      if (!status_.ok()) return status_;
      prepped = true;
      p += take;
      offset += take;
      n -= take;
    }
    // One batched submission for every chunk of this WriteAt; the kernel
    // writes while the merge produces the next block.
    if (prepped) status_ = ring_->Submit();
    return status_;
  }

  Status ReadAt(uint64_t offset, void* out, size_t n) override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("read of closed " + path_);
    // Reads must observe every write this handle already accepted.
    status_ = DrainWrites();
    if (!status_.ok()) return status_;
    uint8_t* p = static_cast<uint8_t*>(out);
    size_t total = 0;
    while (total < n) {
      io_uring_sqe* sqe = ring_->PrepSqe();
      if (sqe == nullptr) {
        return Status::IOError("io_uring submission queue full on " + path_);
      }
      sqe->opcode = IORING_OP_READ;
      sqe->fd = fd_;
      sqe->addr = reinterpret_cast<uint64_t>(p + total);
      sqe->len = static_cast<uint32_t>(n - total);
      sqe->off = offset + total;
      sqe->user_data = kReadUserData;
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(ring_->WaitCqe(&res, &user_data));
      if (res == -EINTR || res == -EAGAIN) continue;
      if (res < 0) {
        return ErrnoStatus("io_uring pread " + path_,
                           static_cast<int>(-res));
      }
      if (res == 0) {
        return Status::IOError("short read at offset in " + path_);
      }
      if (static_cast<size_t>(res) < n - total) {
        g_short_ios.fetch_add(1, std::memory_order_relaxed);
      }
      total += static_cast<size_t>(res);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("sync of closed " + path_);
    status_ = DrainWrites();
    if (!status_.ok()) return status_;
    io_uring_sqe* sqe = ring_->PrepSqe();
    if (sqe == nullptr) {
      return Status::IOError("io_uring submission queue full on " + path_);
    }
    sqe->opcode = IORING_OP_FSYNC;
    sqe->fd = fd_;
    sqe->fsync_flags = IORING_FSYNC_DATASYNC;
    sqe->user_data = kFsyncUserData;
    for (;;) {
      int64_t res = 0;
      uint64_t user_data = 0;
      status_ = ring_->WaitCqe(&res, &user_data);
      if (!status_.ok()) return status_;
      if (res == -EINTR) {
        io_uring_sqe* retry = ring_->PrepSqe();
        if (retry == nullptr) {
          return Status::IOError("io_uring submission queue full on " +
                                 path_);
        }
        retry->opcode = IORING_OP_FSYNC;
        retry->fd = fd_;
        retry->fsync_flags = IORING_FSYNC_DATASYNC;
        retry->user_data = kFsyncUserData;
        continue;
      }
      if (res < 0) {
        status_ = ErrnoStatus("io_uring fsync " + path_,
                              static_cast<int>(-res));
        return status_;
      }
      return Status::OK();
    }
  }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    Status s = status_;
    if (pooled_ != nullptr) {
      const Status drain = DrainWrites();
      if (s.ok()) s = drain;
      ring_ = nullptr;
      pool_->Release(std::move(pooled_));
    }
    if (fd_ >= 0 && ::close(fd_) != 0 && s.ok()) {
      s = ErrnoStatus("close " + path_, errno);
    }
    fd_ = -1;
    if (!s.ok() && status_.ok()) status_ = s;
    return s;
  }

 private:
  static constexpr uint64_t kReadUserData = 100;
  static constexpr uint64_t kFsyncUserData = 101;

  struct Slot {
    uint8_t* buf = nullptr;  // borrowed from the pooled ring
    uint64_t off = 0;
    size_t len = 0;
    size_t done = 0;
    bool busy = false;
  };

  /// One write SQE for the unwritten remainder of slot `s` (prepped, not
  /// submitted — WriteAt batches the submission).
  Status PrepWrite(unsigned s) {
    Slot& slot = slots_[s];
    io_uring_sqe* sqe = ring_->PrepSqe();
    if (sqe == nullptr) {
      return Status::IOError("io_uring submission queue full on " + path_);
    }
    sqe->fd = fd_;
    sqe->addr = reinterpret_cast<uint64_t>(slot.buf + slot.done);
    sqe->len = static_cast<uint32_t>(slot.len - slot.done);
    sqe->off = slot.off + slot.done;
    sqe->user_data = s;
    if (fixed_) {
      sqe->opcode = IORING_OP_WRITE_FIXED;
      sqe->buf_index = static_cast<uint16_t>(s);
    } else {
      sqe->opcode = IORING_OP_WRITE;
    }
    return Status::OK();
  }

  /// Finds a free slot, reaping completions (blocking if necessary).
  Status AcquireSlot(unsigned* out) {
    for (;;) {
      // Opportunistically reap whatever has completed.
      int64_t res = 0;
      uint64_t user_data = 0;
      while (ring_->PopCqe(&res, &user_data)) {
        TWRS_RETURN_IF_ERROR(HandleWriteCqe(user_data, res));
      }
      for (unsigned s = 0; s < kSlots; ++s) {
        if (!slots_[s].busy) {
          *out = s;
          return Status::OK();
        }
      }
      TWRS_RETURN_IF_ERROR(ring_->WaitCqe(&res, &user_data));
      TWRS_RETURN_IF_ERROR(HandleWriteCqe(user_data, res));
    }
  }

  Status HandleWriteCqe(uint64_t user_data, int64_t res) {
    if (user_data >= kSlots) return Status::OK();  // stale read/fsync cqe
    Slot& slot = slots_[static_cast<unsigned>(user_data)];
    if (res == -EINTR || res == -EAGAIN) {
      // Left pending; every wait on a busy slot goes through WaitCqe,
      // whose enter submits it (as does the next WriteAt batch).
      TWRS_RETURN_IF_ERROR(PrepWrite(static_cast<unsigned>(user_data)));
      return Status::OK();
    }
    if (res < 0) {
      return ErrnoStatus("io_uring pwrite " + path_, static_cast<int>(-res));
    }
    if (res == 0) {
      return Status::IOError("zero-length io_uring write on " + path_);
    }
    slot.done += static_cast<size_t>(res);
    if (slot.done < slot.len) {
      g_short_ios.fetch_add(1, std::memory_order_relaxed);
      TWRS_RETURN_IF_ERROR(PrepWrite(static_cast<unsigned>(user_data)));
      return Status::OK();
    }
    slot.busy = false;
    return Status::OK();
  }

  Status DrainWrites() {
    for (;;) {
      bool any_busy = false;
      for (const Slot& slot : slots_) any_busy |= slot.busy;
      if (!any_busy) return Status::OK();
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(ring_->WaitCqe(&res, &user_data));
      TWRS_RETURN_IF_ERROR(HandleWriteCqe(user_data, res));
    }
  }

  int fd_;
  std::string path_;
  const size_t slot_bytes_;

  RingPool* const pool_;
  std::unique_ptr<PooledRing> pooled_;
  Ring* ring_ = nullptr;  // &pooled_->ring while the handle is open
  Slot slots_[kSlots];
  bool fixed_ = false;

  bool closed_ = false;
  Status status_;
};

/// Opens `path`, degrading an O_DIRECT request to a buffered open on
/// filesystems that refuse it (tmpfs returns EINVAL).
int OpenMaybeDirect(const std::string& path, int flags, bool want_direct,
                    bool* got_direct) {
  *got_direct = false;
  if (want_direct) {
    const int fd = ::open(path.c_str(), flags | O_DIRECT, 0644);
    if (fd >= 0) {
      *got_direct = true;
      return fd;
    }
    if (errno != EINVAL) return fd;
  }
  return ::open(path.c_str(), flags, 0644);
}

const std::string& ProbeFailureReason() {
  static const std::string* const reason = [] {
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const int fd = SysIoUringSetup(4, &params);
    if (fd >= 0) {
      ::close(fd);
      return new std::string();
    }
    std::string why = ErrnoString(errno);
    if (errno == ENOSYS) {
      why += " (kernel built without io_uring)";
    } else if (errno == EPERM) {
      why += " (disabled by kernel.io_uring_disabled or seccomp)";
    }
    return new std::string("io_uring_setup failed: " + why);
  }();
  return *reason;
}

}  // namespace

IoUringEnv::IoUringEnv(const IoUringEnvOptions& options) : options_(options) {
  // Transfer buffers double as O_DIRECT buffers, so they must be at least
  // one direct-I/O block; the ring needs room for the deepest per-handle
  // pipeline (double-buffered writes + fsync + a retry resubmission).
  if (options_.buffer_bytes < 4096) options_.buffer_bytes = 4096;
  if (options_.ring_entries < 8) options_.ring_entries = 8;
  if (IsSupported()) pool_ = std::make_shared<RingPool>(options_);
}

IoUringEnv::~IoUringEnv() = default;

bool IoUringEnv::IsSupported() { return ProbeFailureReason().empty(); }

std::string IoUringEnv::UnsupportedReason() {
  const std::string& reason = ProbeFailureReason();
  return reason.empty() ? "supported" : reason;
}

Status IoUringEnv::NewWritableFile(const std::string& path,
                                   std::unique_ptr<WritableFile>* out) {
  if (!IsSupported()) return Status::NotSupported(UnsupportedReason());
  bool got_direct = false;
  const int fd = OpenMaybeDirect(path, O_WRONLY | O_CREAT | O_TRUNC,
                                 options_.use_o_direct, &got_direct);
  if (fd < 0) return ErrnoStatus("open " + path, errno);
  auto file = std::make_unique<UringWritableFile>(
      fd, path, options_, got_direct, static_cast<RingPool*>(pool_.get()));
  TWRS_RETURN_IF_ERROR(file->Init());
  *out = std::move(file);
  return Status::OK();
}

Status IoUringEnv::NewSequentialFile(const std::string& path,
                                     std::unique_ptr<SequentialFile>* out) {
  if (!IsSupported()) return Status::NotSupported(UnsupportedReason());
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open " + path, errno);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("fstat " + path, err);
  }
  auto file = std::make_unique<UringSequentialFile>(
      fd, path, static_cast<uint64_t>(st.st_size), options_,
      static_cast<RingPool*>(pool_.get()));
  TWRS_RETURN_IF_ERROR(file->Init());
  *out = std::move(file);
  return Status::OK();
}

Status IoUringEnv::NewRandomRWFile(const std::string& path,
                                   std::unique_ptr<RandomRWFile>* out) {
  if (!IsSupported()) return Status::NotSupported(UnsupportedReason());
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open " + path, errno);
  auto file = std::make_unique<UringRandomRWFile>(
      fd, path, options_, static_cast<RingPool*>(pool_.get()));
  TWRS_RETURN_IF_ERROR(file->Init());
  *out = std::move(file);
  return Status::OK();
}

Status IoUringEnv::ReopenRandomRWFile(const std::string& path,
                                      std::unique_ptr<RandomRWFile>* out) {
  if (!IsSupported()) return Status::NotSupported(UnsupportedReason());
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return ErrnoStatus("open " + path, errno);
  auto file = std::make_unique<UringRandomRWFile>(
      fd, path, options_, static_cast<RingPool*>(pool_.get()));
  TWRS_RETURN_IF_ERROR(file->Init());
  *out = std::move(file);
  return Status::OK();
}

Status IoUringEnv::NewRandomReadFile(const std::string& path,
                                     std::unique_ptr<RandomRWFile>* out) {
  if (!IsSupported()) return Status::NotSupported(UnsupportedReason());
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open " + path, errno);
  auto file = std::make_unique<UringRandomRWFile>(
      fd, path, options_, static_cast<RingPool*>(pool_.get()));
  TWRS_RETURN_IF_ERROR(file->Init());
  *out = std::move(file);
  return Status::OK();
}

IoCapabilities IoUringEnv::io_capabilities() const {
  IoCapabilities caps;
  caps.native_async = true;
  return caps;
}

void PublishIoUringCounters(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  // The globals only grow, so each registry metric is raised to the
  // current total by its delta. The mutex keeps two concurrent publishers
  // from both applying the same delta to one registry.
  static Mutex mu;
  MutexLock lock(&mu);
  const struct {
    const char* name;
    const std::atomic<uint64_t>* value;
  } kCounters[] = {
      {"io.uring.submitted", &g_sqes_submitted},
      {"io.uring.completed", &g_cqes_completed},
      {"io.uring.short_ios", &g_short_ios},
      {"io.uring.rings_created", &g_rings_created},
      {"io.uring.ring_reuses", &g_ring_reuses},
  };
  for (const auto& counter : kCounters) {
    MonotonicCounter* out = metrics->Counter(counter.name);
    const uint64_t total = counter.value->load(std::memory_order_relaxed);
    const uint64_t seen = out->value();
    if (total > seen) out->Increment(total - seen);
  }
  // Histogram delta: replay the per-bucket count difference at each
  // bucket's lower bound (which maps back into the same bucket, so the
  // registry view stays within the histogram's own error bound).
  LatencyHistogram* out = metrics->Histogram("io.uring.sqe_batch_len");
  const LatencyHistogram::Snapshot total = BatchLenHistogram().TakeSnapshot();
  const LatencyHistogram::Snapshot seen = out->TakeSnapshot();
  for (size_t i = 0; i < total.buckets.size(); ++i) {
    const uint64_t lower = LatencyHistogram::BucketLower(i);
    for (uint64_t c = seen.buckets[i]; c < total.buckets[i]; ++c) {
      out->Record(lower);
    }
  }
}

}  // namespace twrs

#else  // !defined(TWRS_WITH_URING)

namespace twrs {

namespace {
constexpr char kNotBuilt[] =
    "built without TWRS_WITH_URING (linux/io_uring.h not found at configure "
    "time)";
}  // namespace

IoUringEnv::IoUringEnv(const IoUringEnvOptions& options) : options_(options) {
  // Clamped for parity with the real backend so option handling behaves
  // the same regardless of build flavor; no pool without the backend.
  if (options_.buffer_bytes < 4096) options_.buffer_bytes = 4096;
  if (options_.ring_entries < 8) options_.ring_entries = 8;
}

IoUringEnv::~IoUringEnv() = default;

bool IoUringEnv::IsSupported() { return false; }

std::string IoUringEnv::UnsupportedReason() { return kNotBuilt; }

Status IoUringEnv::NewWritableFile(const std::string&,
                                   std::unique_ptr<WritableFile>*) {
  return Status::NotSupported(kNotBuilt);
}

Status IoUringEnv::NewSequentialFile(const std::string&,
                                     std::unique_ptr<SequentialFile>*) {
  return Status::NotSupported(kNotBuilt);
}

Status IoUringEnv::NewRandomRWFile(const std::string&,
                                   std::unique_ptr<RandomRWFile>*) {
  return Status::NotSupported(kNotBuilt);
}

Status IoUringEnv::ReopenRandomRWFile(const std::string&,
                                      std::unique_ptr<RandomRWFile>*) {
  return Status::NotSupported(kNotBuilt);
}

Status IoUringEnv::NewRandomReadFile(const std::string&,
                                     std::unique_ptr<RandomRWFile>*) {
  return Status::NotSupported(kNotBuilt);
}

IoCapabilities IoUringEnv::io_capabilities() const { return IoCapabilities(); }

void PublishIoUringCounters(MetricsRegistry* /*metrics*/) {}

}  // namespace twrs

#endif  // TWRS_WITH_URING
