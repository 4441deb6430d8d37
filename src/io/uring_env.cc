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

// ------------------------------------------------------------- sizing

/// Submission-queue depth of each ring. Eight slots cover the deepest
/// per-handle pipeline (double-buffered writes + fsync + retry
/// resubmissions) with room for batching.
constexpr unsigned kRingEntries = 8;

/// Size of each transfer buffer: two per handle (double-buffered writes or
/// two read-ahead blocks).
constexpr size_t kBufferBytes = 256 * 1024;

constexpr size_t kPageBytes = 4096;

constexpr uint64_t AlignUp(uint64_t v) {
  return (v + kPageBytes - 1) & ~(kPageBytes - 1);
}

struct UnmapDeleter {
  size_t bytes = 0;
  void operator()(uint8_t* p) const { ::munmap(p, bytes); }
};
using AlignedBuffer = std::unique_ptr<uint8_t, UnmapDeleter>;

// Transfer buffers come straight from mmap, page-aligned as buffer
// registration needs. From malloc they would not reliably go back
// to the system: once any large block is freed, glibc raises its mmap
// threshold, and the buffers of destroyed rings then stay cached in
// per-thread arenas, so peak RSS grew with every sort.
AlignedBuffer AllocAligned(size_t n) {
  void* p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return AlignedBuffer(nullptr, UnmapDeleter{0});
  return AlignedBuffer(static_cast<uint8_t*>(p), UnmapDeleter{n});
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

  /// Claims and zeroes the next SQE slot. The per-handle pipelines are
  /// sized well below the ring, so a full queue indicates a logic error.
  Status PrepSqe(io_uring_sqe** out) {
    const unsigned tail = *sq_tail_;
    const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
    if (tail - head >= entries_) {
      return Status::IOError("io_uring submission queue full");
    }
    io_uring_sqe* sqe = &sqes_[tail & sq_mask_];
    std::memset(sqe, 0, sizeof(*sqe));
    sq_array_[tail & sq_mask_] = tail & sq_mask_;
    __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
    ++pending_;
    *out = sqe;
    return Status::OK();
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

  /// Submits every pending SQE and reaps every completion, discarding
  /// results: the caller abandons whatever the operations were for.
  Status Drain() {
    while (inflight_ > 0 || pending_ > 0) {
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(WaitCqe(&res, &user_data));
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

/// Both handle types move data through two kBufferBytes transfer buffers:
/// double-buffered writes or two read-ahead blocks. The uniform shape is
/// what makes one pooled ring serve either handle.
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

  Status Init() {
    TWRS_RETURN_IF_ERROR(ring.Init(kRingEntries));
    uint8_t* raw[kPooledBuffers];
    for (unsigned i = 0; i < kPooledBuffers; ++i) {
      buffers[i] = AllocAligned(kBufferBytes);
      if (buffers[i] == nullptr) {
        return Status::IOError("cannot allocate io_uring transfer buffers");
      }
      raw[i] = buffers[i].get();
    }
    // Registered buffers let data SQEs skip the per-op page pinning. When
    // the kernel refuses (RLIMIT_MEMLOCK, EPERM in containers) the ring
    // falls back to plain READ/WRITE opcodes.
    fixed = RegisterBuffers(&ring, raw, kPooledBuffers, kBufferBytes);
    g_rings_created.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  uint8_t* buf(unsigned i) { return buffers[i].get(); }

  /// Preps (without submitting) one read or write SQE moving `len` bytes
  /// between file offset `off` of `fd` and transfer buffer `b`, starting
  /// `pos` bytes into it. Completions carry `b` as their user_data.
  Status PrepTransfer(bool write, int fd, unsigned b, size_t pos, size_t len,
                      uint64_t off) {
    io_uring_sqe* sqe = nullptr;
    TWRS_RETURN_IF_ERROR(ring.PrepSqe(&sqe));
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<uint64_t>(buf(b) + pos);
    sqe->len = static_cast<uint32_t>(len);
    sqe->off = off;
    sqe->user_data = b;
    if (fixed) {
      sqe->opcode = write ? IORING_OP_WRITE_FIXED : IORING_OP_READ_FIXED;
      sqe->buf_index = static_cast<uint16_t>(b);
    } else {
      sqe->opcode = write ? IORING_OP_WRITE : IORING_OP_READ;
    }
    return Status::OK();
  }
};

/// Free list of quiescent rings, one pool per Env. Thread-safe: parallel
/// run generators and partial merges open handles from several threads
/// at once. Every released ring is kept, so the pool holds the peak
/// number of handles open at once, and a sort creates rings only when it
/// holds more at once than any earlier sort on this Env.
class RingPool {
 public:
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
    TWRS_RETURN_IF_ERROR(fresh->Init());
    *out = std::move(fresh);
    return Status::OK();
  }

  /// Returns a handle's ring to the pool: the one close path of both
  /// handle types, called before the handle closes its fd. Anything still
  /// pending or in flight (error-path closes, abandoned read-ahead) is
  /// submitted and reaped first, so the kernel is not touching buffers the
  /// pool hands to another handle. A ring the kernel refuses to drain is
  /// destroyed instead of kept.
  void Release(std::unique_ptr<PooledRing> pooled) {
    if (pooled == nullptr || !pooled->ring.Drain().ok()) return;
    MutexLock lock(&mu_);
    free_.push_back(std::move(pooled));
  }

 private:
  Mutex mu_;
  std::vector<std::unique_ptr<PooledRing>> free_ TWRS_GUARDED_BY(mu_);
};

/// Reads exactly `n` bytes at `offset` with pread.
Status PreadFully(int fd, const std::string& path, uint64_t offset, void* out,
                  size_t n) {
  uint8_t* p = static_cast<uint8_t*>(out);
  size_t total = 0;
  while (total < n) {
    const ssize_t r = ::pread(fd, p + total, n - total,
                              static_cast<off_t>(offset + total));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread " + path, errno);
    }
    if (r == 0) return Status::IOError("short read at offset in " + path);
    total += static_cast<size_t>(r);
  }
  return Status::OK();
}

// ---------------------------------------------------- UringWriteFile
// The one write handle, behind NewWritableFile, NewRandomRWFile and
// ReopenRandomRWFile alike; Append is a WriteAt at the active buffer's
// tail. Writes are double-buffered: a WriteAt contiguous with the active
// buffer's tail is copied in, and a full buffer is submitted (one SQE per
// kBufferBytes) while the caller fills the other, so appended streams and
// a RangeWritableFile's ascending blocks both go out in 256 KiB writes.
// A write anywhere else (reverse-run pages, written back to front, or a
// header at offset 0), Sync, Close and ReadAt first submit the active
// buffer. A buffer is submitted only once the previous submission has
// completed, so overlapping writes land in the order they were made.
// Disjoint-range writers each open their own handle (and pooled ring), so
// the partitioned output path runs fully overlapped.
class UringWriteFile : public WritableFile, public RandomRWFile {
 public:
  UringWriteFile(int fd, std::string path, RingPool* pool)
      : fd_(fd), path_(std::move(path)), pool_(pool) {}

  ~UringWriteFile() override {
    // Errors from a destructor-time close have nowhere to go; callers that
    // care invoked Close()/Sync() on the checked path already.
    TWRS_IGNORE_STATUS(Close());
  }

  Status Init() { return pool_->Acquire(&pooled_); }

  Status Append(const void* data, size_t n) override {
    return WriteAt(active_off_ + active_used_, data, n);
  }

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("write to closed " + path_);
    if (offset != active_off_ + active_used_) {
      status_ = Rotate(/*eager=*/true);
      if (!status_.ok()) return status_;
      active_off_ = offset;
    }
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (n > 0) {
      const size_t take =
          n < kBufferBytes - active_used_ ? n : kBufferBytes - active_used_;
      std::memcpy(pooled_->buf(active_) + active_used_, p, take);
      active_used_ += take;
      p += take;
      n -= take;
      if (active_used_ == kBufferBytes) {
        status_ = Rotate(/*eager=*/true);
        if (!status_.ok()) return status_;
      }
    }
    return Status::OK();
  }

  Status ReadAt(uint64_t offset, void* out, size_t n) override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("read of closed " + path_);
    // Reads must observe every write this handle already accepted.
    status_ = Drain();
    if (!status_.ok()) return status_;
    return PreadFully(fd_, path_, offset, out, n);
  }

  Status Sync() override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("sync of closed " + path_);
    status_ = Drain();
    if (status_.ok()) status_ = Fsync();
    return status_;
  }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    Status s = status_;
    if (pooled_ != nullptr) {
      if (s.ok()) s = Drain();
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
  /// Submits the active buffer at active_off_ and swaps buffers, first
  /// draining the previous submission; a no-op when the buffer is empty.
  /// `eager` controls whether the SQE is pushed to the kernel now (the
  /// mid-stream case, where the write must overlap the caller refilling
  /// the other buffer) or left pending for the next blocking WaitCqe to
  /// carry in its own io_uring_enter (Drain, which waits immediately
  /// anyway — one syscall instead of two).
  Status Rotate(bool eager) {
    if (active_used_ == 0) return Status::OK();
    TWRS_RETURN_IF_ERROR(WaitInflight());
    inflight_buf_ = active_;
    inflight_off_ = active_off_;
    inflight_len_ = active_used_;
    inflight_done_ = 0;
    TWRS_RETURN_IF_ERROR(PrepWrite());
    if (eager) TWRS_RETURN_IF_ERROR(pooled_->ring.Submit());
    active_off_ += active_used_;
    active_ = 1 - active_;
    active_used_ = 0;
    return Status::OK();
  }

  /// Submits the active buffer and waits until every write is on file.
  Status Drain() {
    TWRS_RETURN_IF_ERROR(Rotate(/*eager=*/false));
    return WaitInflight();
  }

  /// Preps one write SQE for the unwritten remainder of the inflight
  /// buffer.
  Status PrepWrite() {
    return pooled_->PrepTransfer(/*write=*/true, fd_, inflight_buf_,
                                 inflight_done_, inflight_len_ - inflight_done_,
                                 inflight_off_ + inflight_done_);
  }

  /// Reaps the inflight write to completion, resubmitting short writes.
  /// Resubmissions stay pending: the WaitCqe at the top of the loop
  /// submits them inside its blocking enter.
  Status WaitInflight() {
    while (inflight_len_ > inflight_done_) {
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(pooled_->ring.WaitCqe(&res, &user_data));
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

  /// fdatasync through the ring; nothing else is in flight here.
  Status Fsync() {
    for (;;) {
      io_uring_sqe* sqe = nullptr;
      TWRS_RETURN_IF_ERROR(pooled_->ring.PrepSqe(&sqe));
      sqe->opcode = IORING_OP_FSYNC;
      sqe->fd = fd_;
      sqe->fsync_flags = IORING_FSYNC_DATASYNC;
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(pooled_->ring.WaitCqe(&res, &user_data));
      if (res == -EINTR) continue;
      if (res < 0) {
        return ErrnoStatus("io_uring fsync " + path_,
                           static_cast<int>(-res));
      }
      return Status::OK();
    }
  }

  int fd_;
  std::string path_;

  RingPool* const pool_;
  std::unique_ptr<PooledRing> pooled_;

  unsigned active_ = 0;      // buffer the caller is filling
  size_t active_used_ = 0;   // bytes in the active buffer
  uint64_t active_off_ = 0;  // file offset of the active buffer's first byte
  unsigned inflight_buf_ = 1;
  uint64_t inflight_off_ = 0;
  size_t inflight_len_ = 0;   // total bytes of the inflight submission
  size_t inflight_done_ = 0;  // bytes the kernel confirmed so far

  bool closed_ = false;
  Status status_;
};

// ---------------------------------------------- UringSequentialFile
// Sequential reads fed by kernel read-ahead. The read-ahead is
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
  static constexpr unsigned kBlocks = kPooledBuffers;
  // Full block drains before the window opens to two blocks in flight.
  static constexpr unsigned kStreamDrains = 2;

  UringSequentialFile(int fd, std::string path, uint64_t file_size,
                      RingPool* pool)
      : fd_(fd),
        path_(std::move(path)),
        file_size_(file_size),
        pool_(pool) {}

  ~UringSequentialFile() override {
    pool_->Release(std::move(pooled_));
    if (fd_ >= 0) ::close(fd_);
  }

  Status Init() { return pool_->Acquire(&pooled_); }

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
      std::memcpy(p + total, pooled_->buf(front_) + front.pos, take);
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
    // Discard everything buffered or in flight (shorts are not
    // resubmitted) and restart at the new logical position.
    status_ = pooled_->ring.Drain();
    if (!status_.ok()) return status_;
    const Block& front = blocks_[front_];
    const uint64_t logical = front.off + front.pos;
    for (Block& block : blocks_) block = Block();
    started_ = false;
    at_eof_ = false;
    front_ = 0;
    submit_off_ = logical + n;
    return Status::OK();
  }

 private:
  struct Block {
    uint64_t off = 0;
    size_t want = 0;   // bytes requested
    size_t valid = 0;  // bytes delivered
    size_t pos = 0;    // bytes consumed by the caller
    bool ready = false;
    bool eof = false;  // the file ends inside (or before) this block
  };

  Status EnsureStarted(size_t first_request) {
    if (started_) return Status::OK();
    started_ = true;
    front_ = 0;
    drains_ = 0;
    ramp_ = first_request < kPageBytes ? kPageBytes : AlignUp(first_request);
    if (ramp_ > kBufferBytes) ramp_ = kBufferBytes;
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
    return PrepRead(b);
  }

  /// One read SQE for the undelivered remainder of block `b`.
  Status PrepRead(unsigned b) {
    const Block& block = blocks_[b];
    return pooled_->PrepTransfer(/*write=*/false, fd_, b, block.valid,
                                 block.want - block.valid,
                                 block.off + block.valid);
  }

  /// Reaps completions until block `b` is ready.
  Status WaitForBlock(unsigned b) {
    while (!blocks_[b].ready) {
      int64_t res = 0;
      uint64_t user_data = 0;
      TWRS_RETURN_IF_ERROR(pooled_->ring.WaitCqe(&res, &user_data));
      TWRS_RETURN_IF_ERROR(HandleCqe(static_cast<unsigned>(user_data), res));
    }
    return Status::OK();
  }

  Status HandleCqe(unsigned b, int64_t res) {
    Block& block = blocks_[b];
    if (res == -EINTR || res == -EAGAIN) {
      // Left pending; the enclosing wait loop's next WaitCqe submits it.
      return PrepRead(b);
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
      return PrepRead(b);
    }
    block.ready = true;
    return Status::OK();
  }

  /// Refills the fully-consumed front block at the next file offset. Each
  /// drain doubles the block size up to kBufferBytes; the kStreamDrains-th
  /// drain opens the window to two blocks in flight. Before that the
  /// refill stays pending (the next wait's enter submits it); once reading
  /// ahead, submission is eager so the kernel fills the ahead block while
  /// the caller copies out of the other.
  Status RecycleFront() {
    ++drains_;
    if (ramp_ < kBufferBytes) {
      ramp_ = ramp_ * 2 < kBufferBytes ? ramp_ * 2 : kBufferBytes;
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
    return pooled_->ring.Submit();
  }

  int fd_;
  std::string path_;
  const uint64_t file_size_;  // size at open; reads never go past it

  RingPool* const pool_;
  std::unique_ptr<PooledRing> pooled_;
  Block blocks_[kBlocks];

  bool started_ = false;
  bool at_eof_ = false;
  unsigned front_ = 0;
  uint64_t submit_off_ = 0;
  // Demand pacing: full drains since (re)start, and the current block
  // size, doubling per drain up to kBufferBytes.
  unsigned drains_ = 0;
  size_t ramp_ = 0;

  Status status_;
};

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

/// Opens `path` with `flags` behind the one write handle, which serves
/// both the append and the positioned-write interface.
template <typename File>
Status OpenWriteFile(const std::string& path, int flags, void* pool,
                     std::unique_ptr<File>* out) {
  if (!IoUringEnv::IsSupported()) {
    return Status::NotSupported(IoUringEnv::UnsupportedReason());
  }
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoStatus("open " + path, errno);
  auto file =
      std::make_unique<UringWriteFile>(fd, path, static_cast<RingPool*>(pool));
  TWRS_RETURN_IF_ERROR(file->Init());
  *out = std::move(file);
  return Status::OK();
}

}  // namespace

IoUringEnv::IoUringEnv() {
  if (IsSupported()) pool_ = std::make_shared<RingPool>();
}

IoUringEnv::~IoUringEnv() = default;

bool IoUringEnv::IsSupported() { return ProbeFailureReason().empty(); }

std::string IoUringEnv::UnsupportedReason() {
  const std::string& reason = ProbeFailureReason();
  return reason.empty() ? "supported" : reason;
}

Status IoUringEnv::NewWritableFile(const std::string& path,
                                   std::unique_ptr<WritableFile>* out) {
  return OpenWriteFile(path, O_WRONLY | O_CREAT | O_TRUNC, pool_.get(), out);
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
      fd, path, static_cast<uint64_t>(st.st_size),
      static_cast<RingPool*>(pool_.get()));
  TWRS_RETURN_IF_ERROR(file->Init());
  *out = std::move(file);
  return Status::OK();
}

Status IoUringEnv::NewRandomRWFile(const std::string& path,
                                   std::unique_ptr<RandomRWFile>* out) {
  return OpenWriteFile(path, O_RDWR | O_CREAT | O_TRUNC, pool_.get(), out);
}

Status IoUringEnv::ReopenRandomRWFile(const std::string& path,
                                      std::unique_ptr<RandomRWFile>* out) {
  return OpenWriteFile(path, O_RDWR, pool_.get(), out);
}

// A single positioned read costs one syscall either way; a ring would only
// add a pooled-ring acquire, so positioned reads are plain pread.
Status IoUringEnv::NewRandomReadFile(const std::string& path,
                                     std::unique_ptr<RandomRWFile>* out) {
  if (!IsSupported()) return Status::NotSupported(UnsupportedReason());
  return metadata_env_.NewRandomReadFile(path, out);
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

IoUringEnv::IoUringEnv() = default;

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
