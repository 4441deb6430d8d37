#include "select/topk_sort.h"

#include <vector>

#include "io/record_io.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "select/dual_heap_selector.h"
#include "util/stopwatch.h"

namespace twrs {

Status DualHeapSelectToFile(Env* env, const ExternalSortOptions& options,
                            RecordSource* source,
                            const std::string& output_path,
                            ExternalSortResult* result) {
  Stopwatch select_watch;
  if (options.progress != nullptr) {
    options.progress->AdvancePhase(SortProgressPhase::kRunGeneration);
  }

  DualHeapSelector selector(options.limit, options.order);
  TWRS_RETURN_IF_ERROR(selector.AddAll(source));
  result->run_gen.total_records = selector.consumed();
  result->run_gen_seconds = select_watch.ElapsedSeconds();

  if (options.progress != nullptr) {
    options.progress->AdvancePhase(SortProgressPhase::kFinalMerge);
  }
  const std::vector<Key> selected = selector.Take();
  RecordWriter writer(env, output_path, options.block_bytes);
  TWRS_RETURN_IF_ERROR(writer.status());
  // The selection writes the user-visible output directly — same durability
  // contract as the final merge pass of a full sort.
  writer.set_sync_on_finish(true);
  TWRS_RETURN_IF_ERROR(writer.AppendBatch(selected.data(), selected.size()));
  TWRS_RETURN_IF_ERROR(writer.Finish());
  result->output_records = writer.count();
  if (options.progress != nullptr) {
    options.progress->AddRecordsMerged(writer.count());
    options.progress->AdvancePhase(SortProgressPhase::kComplete);
  }
  if (options.metrics != nullptr) {
    options.metrics->Counter("select.dual_heap_sorts")->Increment();
    options.metrics->Histogram("select.selection_seconds")
        ->RecordSeconds(select_watch.ElapsedSeconds());
  }
  return Status::OK();
}

}  // namespace twrs
