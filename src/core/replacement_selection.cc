#include "core/replacement_selection.h"

#include "heap/binary_heap.h"

namespace twrs {

namespace {

// Min-heap order: earlier runs first, then smaller keys (§3.3: records of
// the next run rank below — i.e. after — every current-run record).
struct RsBefore {
  bool operator()(const TaggedRecord& a, const TaggedRecord& b) const {
    if (a.run != b.run) return a.run < b.run;
    return a.key < b.key;
  }
};

}  // namespace

ReplacementSelection::ReplacementSelection(ReplacementSelectionOptions options)
    : options_(options) {}

Status ReplacementSelection::Generate(RecordSource* source, RunSink* sink,
                                      RunGenStats* stats) {
  if (options_.memory_records == 0) {
    return Status::InvalidArgument("memory_records must be positive");
  }
  const size_t first_run = sink->runs().size();

  BinaryHeap<TaggedRecord, RsBefore> heap;
  heap.Reserve(options_.memory_records);

  // Fill phase (heap.fill in Algorithm 1): load one memory's worth.
  Key key;
  while (heap.size() < options_.memory_records && source->Next(&key)) {
    heap.Push(TaggedRecord{key, 0});
  }

  uint32_t current_run = 0;
  bool in_run = false;
  if (!heap.empty()) {
    TWRS_RETURN_IF_ERROR(sink->BeginRun());
    in_run = true;
  }
  while (!heap.empty()) {
    // Run boundary: the top record belongs to the next run, hence so does
    // everything else in the heap (§3.3).
    if (heap.Top().run > current_run) {
      TWRS_RETURN_IF_ERROR(sink->EndRun());
      TWRS_RETURN_IF_ERROR(sink->BeginRun());
      current_run = heap.Top().run;
    }
    const TaggedRecord next_output = heap.Pop();
    TWRS_RETURN_IF_ERROR(sink->Append(kStream1, next_output.key));
    if (source->Next(&key)) {
      const uint32_t run =
          key < next_output.key ? current_run + 1 : current_run;
      heap.Push(TaggedRecord{key, run});
    }
  }
  // A failed read ends the input like EOF; only the source can tell.
  TWRS_RETURN_IF_ERROR(source->status());
  if (in_run) TWRS_RETURN_IF_ERROR(sink->EndRun());
  TWRS_RETURN_IF_ERROR(sink->Finish());
  FillStatsFromSink(*sink, first_run, stats);
  return Status::OK();
}

}  // namespace twrs
