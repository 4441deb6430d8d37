#include "core/load_sort_store.h"

#include <vector>

#include "core/block_sort.h"

namespace twrs {

LoadSortStore::LoadSortStore(LoadSortStoreOptions options)
    : options_(options) {}

Status LoadSortStore::Generate(RecordSource* source, RunSink* sink,
                               RunGenStats* stats) {
  if (options_.memory_records == 0) {
    return Status::InvalidArgument("memory_records must be positive");
  }
  const size_t first_run = sink->runs().size();
  const size_t capacity = options_.memory_records;
  std::vector<Key> block(capacity);
  for (;;) {
    size_t filled = 0;
    TWRS_RETURN_IF_ERROR(source->Read(block.data(), capacity, &filled));
    if (filled == 0) break;
    SortKeysBlock(block.data(), filled);
    TWRS_RETURN_IF_ERROR(sink->BeginRun());
    TWRS_RETURN_IF_ERROR(sink->AppendSorted(kStream1, block.data(), filled));
    TWRS_RETURN_IF_ERROR(sink->EndRun());
    if (filled < capacity) break;  // input exhausted
  }
  TWRS_RETURN_IF_ERROR(sink->Finish());
  FillStatsFromSink(*sink, first_run, stats);
  return Status::OK();
}

}  // namespace twrs
