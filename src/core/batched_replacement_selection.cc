#include "core/batched_replacement_selection.h"

#include <algorithm>
#include <vector>

#include "core/minirun_heap.h"
#include "simd/kernels.h"

namespace twrs {

BatchedReplacementSelection::BatchedReplacementSelection(
    BatchedReplacementSelectionOptions options)
    : options_(options) {}

Status BatchedReplacementSelection::Generate(RecordSource* source,
                                             RunSink* sink,
                                             RunGenStats* stats) {
  if (options_.memory_records == 0) {
    return Status::InvalidArgument("memory_records must be positive");
  }
  if (options_.batch_records == 0 ||
      options_.batch_records > options_.memory_records) {
    return Status::InvalidArgument(
        "batch_records must be in [1, memory_records]");
  }
  const size_t first_run = sink->runs().size();
  const size_t memory = options_.memory_records;
  const size_t batch = options_.batch_records;

  MinirunArena arena;
  MinirunHeap<DrainOrder::kAscending> current(&arena);
  std::vector<Minirun> deferred;  // next-run miniruns (below the last output)
  size_t in_memory = 0;  // unconsumed records across all miniruns
  bool input_done = false;
  bool have_last_output = false;
  Key last_output = 0;

  // Keeps the arena within twice the memory budget before a batch is read
  // into it: `in_memory` bounds the keys the miniruns hold, not the blocks
  // they pin, and a straggler left in each batch's block would pin a
  // batch of keys per record held. Past the bound, the live keys move
  // into packed blocks.
  auto bound_arena = [&]() {
    if (arena.allocated_keys() + batch <= 2 * memory) return;
    arena.Compact(batch, [&](auto visit) {
      current.ForEach(visit);
      for (Minirun& run : deferred) visit(run);
    });
  };

  // Reads one batch, sorts it in an arena block, and splits it at the last
  // output: the suffix extends the current run, the prefix is deferred to
  // the next one.
  auto read_batch = [&]() -> Status {
    if (input_done) return Status::OK();
    bound_arena();
    const uint32_t block = arena.Acquire(batch);
    Key* keys = arena.data(block);
    size_t n = 0;
    TWRS_RETURN_IF_ERROR(source->Read(keys, batch, &n));
    if (n < batch) input_done = true;
    if (n == 0) {
      arena.Release(block);
      return Status::OK();
    }
    simd::SortKeysBlock(keys, n);
    in_memory += n;
    Key* boundary =
        have_last_output ? std::lower_bound(keys, keys + n, last_output) : keys;
    if (boundary > keys) {
      arena.Retain(block);
      deferred.push_back(Minirun{keys, boundary, block});
    }
    if (boundary < keys + n) current.Push(Minirun{boundary, keys + n, block});
    arena.Release(block);
    return Status::OK();
  };

  // Initial fill: load one memory's worth of batches.
  while (!input_done && in_memory + batch <= memory) {
    TWRS_RETURN_IF_ERROR(read_batch());
  }
  if (in_memory == 0) {
    peak_arena_keys_ = arena.peak_allocated_keys();
    TWRS_RETURN_IF_ERROR(sink->Finish());
    FillStatsFromSink(*sink, first_run, stats);
    return Status::OK();
  }

  TWRS_RETURN_IF_ERROR(sink->BeginRun());
  for (;;) {
    if (current.empty()) {
      // Current run complete; promote the deferred miniruns.
      TWRS_RETURN_IF_ERROR(sink->EndRun());
      if (deferred.empty()) break;
      TWRS_RETURN_IF_ERROR(sink->BeginRun());
      have_last_output = false;
      for (const Minirun& run : deferred) {
        current.Push(run);
        arena.Release(run.block);
      }
      deferred.clear();
      continue;
    }
    // Emit the top minirun's span, stopping where a refill is due: a batch
    // is read whenever a batch's worth of memory has been released.
    size_t span = current.TopSpan();
    if (!input_done) {
      const size_t refill_at = memory - batch;
      span = std::min(span, in_memory > refill_at ? in_memory - refill_at : 1);
    }
    const Key* keys = current.TopKeys();
    TWRS_RETURN_IF_ERROR(sink->AppendSorted(kStream1, keys, span));
    last_output = keys[span - 1];
    have_last_output = true;
    in_memory -= span;
    current.Consume(span);
    if (in_memory + batch <= memory) TWRS_RETURN_IF_ERROR(read_batch());
  }
  peak_arena_keys_ = arena.peak_allocated_keys();
  TWRS_RETURN_IF_ERROR(sink->Finish());
  FillStatsFromSink(*sink, first_run, stats);
  return Status::OK();
}

}  // namespace twrs
