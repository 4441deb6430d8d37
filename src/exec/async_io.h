#ifndef TWRS_EXEC_ASYNC_IO_H_
#define TWRS_EXEC_ASYNC_IO_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "exec/blocking_queue.h"
#include "exec/thread_pool.h"
#include "io/env.h"
#include "io/range_writable_file.h"
#include "io/record_io.h"
#include "util/status.h"

namespace twrs {

class LatencyHistogram;

/// Default size of each half of AsyncWritableFile's double buffer.
inline constexpr size_t kDefaultAsyncBufferBytes = 256 * 1024;

/// Double-buffered, background-flushed decorator around any WritableFile.
///
/// Append copies into the active buffer; when it fills, the buffer is sealed
/// and handed to the thread pool to flush while appends continue into the
/// other half, overlapping producer CPU work (heap pushes, merge
/// comparisons) with write I/O. At most one flush is in flight, so the
/// wrapped file always sees appends in order from one thread at a time.
///
/// A failing background Append is sticky: the error surfaces on the next
/// buffer rotation (or Close) and every later call returns it.
///
/// With a null pool the decorator degenerates to a synchronous pass-through.
class AsyncWritableFile : public WritableFile {
 public:
  /// Takes ownership of `base`; `pool` (if non-null) must outlive this file.
  AsyncWritableFile(std::unique_ptr<WritableFile> base, ThreadPool* pool,
                    size_t buffer_bytes = kDefaultAsyncBufferBytes);

  /// Closes the file, waiting for any in-flight flush.
  ~AsyncWritableFile() override;

  Status Append(const void* data, size_t n) override;

  /// Flushes both buffer halves to the wrapped file, then forwards the
  /// Sync so the bytes reach stable storage. Appends may continue after.
  Status Sync() override;

  Status Close() override;

  /// Records the wall time of every flush to the wrapped file (background
  /// buffer flushes, or each Append in synchronous pass-through mode) into
  /// `histogram`, which must outlive this file. Null (the default)
  /// disables timing entirely. Set before the first Append.
  void set_flush_histogram(LatencyHistogram* histogram) {
    flush_histogram_ = histogram;
  }

 private:
  /// Waits for the in-flight flush (if any) and folds its Status into
  /// `status_`.
  Status WaitForInflight();

  /// Seals the active buffer and submits it as a background flush.
  Status RotateAndFlush();

  std::unique_ptr<WritableFile> base_;
  ThreadPool* pool_;
  std::vector<uint8_t> active_;
  std::vector<uint8_t> inflight_;
  size_t active_used_ = 0;
  size_t inflight_used_ = 0;
  TaskHandle pending_;
  Status status_;
  LatencyHistogram* flush_histogram_ = nullptr;
  bool closed_ = false;
};

/// Read-ahead decorator around any SequentialFile. A dedicated pump thread
/// keeps up to `prefetch_blocks` blocks of `block_bytes` each in flight in a
/// bounded queue, so the consumer's Read mostly copies from memory while the
/// next blocks are being fetched. Designed for merge inputs, where every
/// stream is consumed strictly sequentially.
///
/// The pump runs on its own thread rather than a pool task: it lives as long
/// as the file, and parking long-running pumps on a fixed-size pool would
/// starve the short tasks (flushes, leaf merges) the pool exists for.
///
/// A read error from the wrapped file is delivered (sticky) in place of the
/// first Read that cannot be served entirely from blocks fetched before the
/// error — never as a short read, which the SequentialFile contract would
/// make indistinguishable from EOF.
class PrefetchingSequentialFile : public SequentialFile {
 public:
  /// Takes ownership of `base`.
  PrefetchingSequentialFile(std::unique_ptr<SequentialFile> base,
                            size_t block_bytes, size_t prefetch_blocks);

  /// Stops the pump thread; bytes not yet consumed are discarded.
  ~PrefetchingSequentialFile() override;

  Status Read(void* out, size_t n, size_t* bytes_read) override;

  /// Skips by consuming (the stream position lives in the pump's file).
  Status Skip(uint64_t n) override;

 private:
  struct Block {
    std::vector<uint8_t> data;
    Status status;
    bool last = false;  ///< no blocks follow (EOF or error)
  };

  void Pump();

  /// Makes the next block current; false when the stream is exhausted or a
  /// sticky error is pending.
  bool AdvanceBlock();

  std::unique_ptr<SequentialFile> base_;
  const size_t block_bytes_;
  BlockingQueue<Block> queue_;
  Block current_;
  size_t pos_ = 0;
  Status error_;
  std::thread pump_;
};

/// The single construction point for every record stream the engine
/// writes — run sink streams and every merge output, append or positioned.
/// Creates `path` through `env` (truncating), or, when `range.positioned`,
/// opens a RangeWritableFile over that range of the existing file, and
/// returns a RecordWriter over it. Writes go through an AsyncWritableFile
/// flushed on `pool` when `pool` is non-null and `env` is not
/// native_async (a natively async backend needs no pump task).
/// A non-null `flush_histogram` records the wall time of every write that
/// reaches the file — background flushes with a pool, synchronous appends
/// without; it must outlive the writer.
Status MakeAsyncRecordWriter(Env* env, const std::string& path,
                             size_t block_bytes, ThreadPool* pool,
                             std::unique_ptr<RecordWriter>* out,
                             LatencyHistogram* flush_histogram = nullptr,
                             const MergeOutputRange& range = {});

}  // namespace twrs

#endif  // TWRS_EXEC_ASYNC_IO_H_
