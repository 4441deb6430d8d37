#ifndef TWRS_SELECT_TOPK_SORT_H_
#define TWRS_SELECT_TOPK_SORT_H_

#include <string>

#include "core/record_source.h"
#include "io/env.h"
#include "merge/external_sorter.h"
#include "util/status.h"

namespace twrs {

/// The TopKStrategy::kDualHeap execution path: streams `source` once, a
/// DualHeapSelector::kIngestBatch batch at a time (Read into one reused
/// buffer), through a DualHeapSelector of capacity `options.limit`
/// and writes the selection — ascending-sorted, byte-identical to a full
/// sort truncated to its first (kAscending) or last (kDescending) K
/// records — to `output_path`. No runs, no merge, no scratch files; the
/// only engine I/O is the output write, so `env` should be the sorter's
/// CountingEnv.
///
/// Fills `result` like a sort: run_gen.total_records is the stream
/// length, output_records the selection size, run_gen_seconds the
/// streaming time. Records select.dual_heap_sorts and
/// select.selection_seconds in options.metrics and advances the phases of
/// options.progress; the caller's SortInputSource adds the records read
/// and checks options.cancel. A failed read of `source` returns its error
/// rather than a selection of a short input.
Status DualHeapSelectToFile(Env* env, const ExternalSortOptions& options,
                            RecordSource* source,
                            const std::string& output_path,
                            ExternalSortResult* result);

}  // namespace twrs

#endif  // TWRS_SELECT_TOPK_SORT_H_
