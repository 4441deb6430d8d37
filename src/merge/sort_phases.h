#ifndef TWRS_MERGE_SORT_PHASES_H_
#define TWRS_MERGE_SORT_PHASES_H_

#include <string>
#include <vector>

#include "core/record_source.h"
#include "core/run_sink.h"
#include "exec/thread_pool.h"
#include "io/env.h"
#include "merge/external_sorter.h"
#include "merge/merge_plan.h"
#include "util/cancel.h"
#include "util/status.h"

namespace twrs {

/// Shared state threaded through the phases of one external sort. Built by
/// PrepareSortContext, consumed and extended by each phase in turn.
struct SortContext {
  Env* env = nullptr;
  const ExternalSortOptions* options = nullptr;

  /// Unique per-sort scratch directory under options->temp_dir.
  std::string sort_dir;

  /// Worker pool for the pipelined features, borrowed from the configured
  /// Executor; null = fully serial.
  ThreadPool* pool = nullptr;

  /// Cooperative cancellation token from the sort options; polled by the
  /// run-generation and merge phases. Null = not cancellable.
  const CancelToken* cancel = nullptr;

  /// Live progress counters from the sort options; each phase advances
  /// the current phase and feeds its record counts. Null = no progress.
  ProgressCounters* progress = nullptr;

  /// Metrics registry from the sort options; each phase records its wall
  /// time and sink flush latencies. Null = no metrics.
  MetricsRegistry* metrics = nullptr;

  /// Runs produced by the run-generation phase.
  std::vector<RunInfo> runs;

  /// Merge configuration produced by the planning phase.
  MergeOptions merge_plan;

  /// Timing and volume accumulated across phases.
  ExternalSortResult result;
};

/// A sort's input as its run generator or top-K selector sees it: each
/// read adds its records to `progress` (if set) in one call, and once
/// `cancel` fires every read returns Status::Cancelled, so a cancelled
/// sort stops consuming within a batch (a record-at-a-time generator
/// within its read-ahead) and unwinds with the status its generator
/// returns. ExternalSorter wraps its source in one before any phase runs.
class SortInputSource : public RecordSource {
 public:
  /// Does not take ownership of anything.
  SortInputSource(RecordSource* base, const CancelToken* cancel,
                  ProgressCounters* progress)
      : base_(base), cancel_(cancel), progress_(progress) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override;

 private:
  RecordSource* base_;
  const CancelToken* cancel_;
  ProgressCounters* progress_;
};

/// Resolves the execution resources of one sort: creates the unique
/// sort_dir and picks the pool — none (serial) or the configured
/// Executor's.
Status PrepareSortContext(Env* env, const ExternalSortOptions& options,
                          SortContext* context);

// The three phases of an external sort, run in order by
// ExternalSorter::Sort over one SortContext.

/// Phase 1: consumes `source` through the configured run-generation
/// algorithm — parallel.run_generation_threads generators sharing the
/// memory budget, the caller running the first and the pool the rest —
/// writing runs into sort_dir and recording the summed run stats plus the
/// phase time.
Status RunGenerationPhase(SortContext* context, RecordSource* source);

/// Phase 2: derives the merge schedule configuration (fan-in, buffers,
/// pool wiring) from the sort options into context->merge_plan.
Status MergePlanningPhase(SortContext* context);

/// Phase 3: executes the planned multi-pass merge of context->runs into
/// `output_path` and records merge stats plus the phase time.
Status FinalMergePhase(SortContext* context, const std::string& output_path);

}  // namespace twrs

#endif  // TWRS_MERGE_SORT_PHASES_H_
