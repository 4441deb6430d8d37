#include "io/uring_env.h"

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "util/mutex.h"

#if defined(TWRS_WITH_URING)

#include <fcntl.h>
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
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

/// Size of each transfer buffer: two per write handle, double-buffered.
constexpr size_t kBufferBytes = 256 * 1024;

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
/// sandboxes) — callers then fall back to the plain WRITE opcode.
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

/// A write handle double-buffers through two kBufferBytes transfer
/// buffers: the caller fills one while the kernel writes the other.
constexpr unsigned kPooledBuffers = 2;

/// A ring plus its two registered transfer buffers, recycled across write
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
    // falls back to the plain WRITE opcode.
    fixed = RegisterBuffers(&ring, raw, kPooledBuffers, kBufferBytes);
    g_rings_created.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  uint8_t* buf(unsigned i) { return buffers[i].get(); }

  /// Preps (without submitting) one write SQE moving `len` bytes from
  /// transfer buffer `b`, starting `pos` bytes into it, to file offset
  /// `off` of `fd`. Completions carry `b` as their user_data.
  Status PrepWrite(int fd, unsigned b, size_t pos, size_t len, uint64_t off) {
    io_uring_sqe* sqe = nullptr;
    TWRS_RETURN_IF_ERROR(ring.PrepSqe(&sqe));
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<uint64_t>(buf(b) + pos);
    sqe->len = static_cast<uint32_t>(len);
    sqe->off = off;
    sqe->user_data = b;
    if (fixed) {
      sqe->opcode = IORING_OP_WRITE_FIXED;
      sqe->buf_index = static_cast<uint16_t>(b);
    } else {
      sqe->opcode = IORING_OP_WRITE;
    }
    return Status::OK();
  }
};

/// Free list of quiescent rings, one pool per Env. Thread-safe: parallel
/// run generators and partial merges open write handles from several
/// threads at once. Every released ring is kept, so the pool holds the
/// peak number of write handles open at once, and a sort creates rings
/// only when it holds more at once than any earlier sort on this Env.
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

  /// Returns a write handle's ring to the pool, called before the handle
  /// closes its fd. Anything still pending or in flight (error-path
  /// closes) is submitted and reaped first, so the kernel is not touching
  /// buffers the pool hands to another handle. A ring the kernel refuses
  /// to drain is destroyed instead of kept.
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

  /// Starts writeback only of bytes whose write completion was already
  /// reaped, so a kick never waits on the ring. The rest of an ascending
  /// stream's requested bytes wait for the next kick, and Sync flushes
  /// whatever is left at the end.
  Status StartWriteback(uint64_t offset, uint64_t n) override {
    if (!status_.ok()) return status_;
    if (closed_) return Status::IOError("writeback of closed " + path_);
    if (offset != kick_end_) kick_begin_ = offset;
    kick_end_ = offset + n;
    const uint64_t end = std::min(kick_end_, completed_end_);
    if (end <= kick_begin_) return Status::OK();
    if (::sync_file_range(fd_, static_cast<off_t>(kick_begin_),
                          static_cast<off_t>(end - kick_begin_),
                          SYNC_FILE_RANGE_WRITE) != 0) {
      return ErrnoStatus("sync_file_range " + path_, errno);
    }
    kick_begin_ = end;
    return Status::OK();
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
    return pooled_->PrepWrite(fd_, inflight_buf_, inflight_done_,
                              inflight_len_ - inflight_done_,
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
    completed_end_ = inflight_off_ + inflight_len_;
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
  uint64_t completed_end_ = 0;  // end of the last write known complete

  // Requested writeback not yet started: [kick_begin_, kick_end_).
  uint64_t kick_begin_ = 0;
  uint64_t kick_end_ = 0;

  bool closed_ = false;
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

Status IoUringEnv::NewRandomRWFile(const std::string& path,
                                   std::unique_ptr<RandomRWFile>* out) {
  return OpenWriteFile(path, O_RDWR | O_CREAT | O_TRUNC, pool_.get(), out);
}

Status IoUringEnv::ReopenRandomRWFile(const std::string& path,
                                      std::unique_ptr<RandomRWFile>* out) {
  return OpenWriteFile(path, O_RDWR, pool_.get(), out);
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

Status IoUringEnv::NewRandomRWFile(const std::string&,
                                   std::unique_ptr<RandomRWFile>*) {
  return Status::NotSupported(kNotBuilt);
}

Status IoUringEnv::ReopenRandomRWFile(const std::string&,
                                      std::unique_ptr<RandomRWFile>*) {
  return Status::NotSupported(kNotBuilt);
}

IoCapabilities IoUringEnv::io_capabilities() const { return IoCapabilities(); }

void PublishIoUringCounters(MetricsRegistry* /*metrics*/) {}

}  // namespace twrs

#endif  // TWRS_WITH_URING
