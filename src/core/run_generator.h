#ifndef TWRS_CORE_RUN_GENERATOR_H_
#define TWRS_CORE_RUN_GENERATOR_H_

#include <string>

#include "core/record_source.h"
#include "core/run_sink.h"
#include "core/run_stats.h"
#include "util/status.h"

namespace twrs {

/// A run generation algorithm for the first phase of external mergesort
/// (§2.1.1): consumes an input stream and produces sorted runs.
class RunGenerator {
 public:
  virtual ~RunGenerator() = default;

  /// Consumes `source` to exhaustion, emitting sorted runs into `sink`
  /// (calling Finish on it) and filling `*stats` if non-null. A failed
  /// read of `source` is returned, never taken for the end of input.
  virtual Status Generate(RecordSource* source, RunSink* sink,
                          RunGenStats* stats) = 0;

  /// Human-readable algorithm name for reports.
  virtual std::string name() const = 0;
};

/// Copies per-run lengths from the sink's runs [first_run, end) into stats.
/// Shared by all generators so stats always agree with the sink.
void FillStatsFromSink(const RunSink& sink, size_t first_run,
                       RunGenStats* stats);

}  // namespace twrs

#endif  // TWRS_CORE_RUN_GENERATOR_H_
