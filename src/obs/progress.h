#ifndef TWRS_OBS_PROGRESS_H_
#define TWRS_OBS_PROGRESS_H_

#include <atomic>
#include <cstdint>

namespace twrs {

/// Coarse phase a sort job is currently in, for live status displays.
/// Ordered: a job only moves forward (AdvancePhase is a monotonic max).
enum class SortProgressPhase : uint32_t {
  kPending = 0,
  kRunGeneration = 1,
  kMergePlanning = 2,
  kFinalMerge = 3,
  kComplete = 4,
};

inline const char* SortProgressPhaseName(SortProgressPhase phase) {
  switch (phase) {
    case SortProgressPhase::kPending:
      return "pending";
    case SortProgressPhase::kRunGeneration:
      return "run-gen";
    case SortProgressPhase::kMergePlanning:
      return "planning";
    case SortProgressPhase::kFinalMerge:
      return "merge";
    case SortProgressPhase::kComplete:
      return "complete";
  }
  return "unknown";
}

/// Plain-value snapshot of a job's live progress, safe to copy and print.
struct JobProgress {
  SortProgressPhase phase = SortProgressPhase::kPending;
  uint64_t records_ingested = 0;  ///< Records consumed by run generation.
  uint64_t records_merged = 0;    ///< Records emitted by merge passes.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t total_records = 0;  ///< Expected input records; 0 if unknown.

  /// Expected output records; 0 if unknown. Equals total_records for a
  /// full sort but only K for a top-K job (spec.sort.limit), so status
  /// displays can report merge progress against the records the job will
  /// actually write rather than the input size.
  uint64_t total_output_records = 0;
};

/// Live progress counters for one sort job, updated from the hot paths
/// with relaxed atomics and read at any time by status pollers. Writers
/// batch their increments (see SortInputSource / MergeCursorsToSink), so a
/// mid-flight read can trail the truth by a bounded amount; once the job
/// reaches a terminal state the counters are exact.
class ProgressCounters {
 public:
  ProgressCounters() = default;

  ProgressCounters(const ProgressCounters&) = delete;
  ProgressCounters& operator=(const ProgressCounters&) = delete;

  void AddRecordsIngested(uint64_t n) {
    ingested_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddRecordsMerged(uint64_t n) {
    merged_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Raw byte counters, exposed so CountingEnv can mirror I/O into them
  /// without the io layer depending on this header's types.
  std::atomic<uint64_t>* bytes_read_counter() { return &read_; }
  std::atomic<uint64_t>* bytes_written_counter() { return &written_; }

  void set_total_records(uint64_t n) {
    total_.store(n, std::memory_order_relaxed);
  }
  void set_total_output_records(uint64_t n) {
    out_total_.store(n, std::memory_order_relaxed);
  }

  /// Monotonic-max phase advance: the furthest phase reported wins and
  /// the phase never moves backwards.
  void AdvancePhase(SortProgressPhase phase) {
    const uint32_t target = static_cast<uint32_t>(phase);
    uint32_t cur = phase_.load(std::memory_order_relaxed);
    while (cur < target && !phase_.compare_exchange_weak(
                               cur, target, std::memory_order_relaxed)) {
    }
  }

  JobProgress Snapshot() const {
    JobProgress p;
    p.phase =
        static_cast<SortProgressPhase>(phase_.load(std::memory_order_relaxed));
    p.records_ingested = ingested_.load(std::memory_order_relaxed);
    p.records_merged = merged_.load(std::memory_order_relaxed);
    p.bytes_read = read_.load(std::memory_order_relaxed);
    p.bytes_written = written_.load(std::memory_order_relaxed);
    p.total_records = total_.load(std::memory_order_relaxed);
    p.total_output_records = out_total_.load(std::memory_order_relaxed);
    return p;
  }

 private:
  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> merged_{0};
  std::atomic<uint64_t> read_{0};
  std::atomic<uint64_t> written_{0};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> out_total_{0};
  std::atomic<uint32_t> phase_{0};
};

}  // namespace twrs

#endif  // TWRS_OBS_PROGRESS_H_
