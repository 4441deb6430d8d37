#ifndef TWRS_WORKLOAD_GENERATORS_H_
#define TWRS_WORKLOAD_GENERATORS_H_

#include <memory>
#include <string>

#include "core/record_source.h"
#include "io/env.h"
#include "io/record_io.h"
#include "util/status.h"

namespace twrs {

/// The six input distributions of the paper's evaluation (§5.2, Fig 5.1).
enum class Dataset {
  kSorted = 0,           ///< already sorted ascending
  kReverseSorted = 1,    ///< sorted descending (RS's worst case)
  kAlternating = 2,      ///< ascending/descending sections over the range
  kRandom = 3,           ///< uniform random
  kMixed = 4,            ///< 1:1 interleave of a rising and a falling trend
  kMixedImbalanced = 5,  ///< 1:3 interleave of rising and falling trends
};

inline constexpr int kNumDatasets = 6;

const char* DatasetName(Dataset dataset);

/// Workload parameters. Base keys are spaced `stride` apart so that the
/// paper's de-determinizing noise — a uniform value in [1, 1000] added to
/// every record (§5.2) — perturbs records without destroying the trend.
struct WorkloadOptions {
  uint64_t num_records = 0;

  /// Ascending + descending sections for kAlternating (the paper uses 50:
  /// 25 rising and 25 falling interleaved intervals).
  uint64_t sections = 50;

  uint64_t seed = 1;

  /// Add the +U[1,1000] per-record noise of §5.2.
  bool add_noise = true;

  /// Base key spacing.
  Key stride = 1000;
};

/// Creates a streaming generator for the given dataset. The same options
/// and seed always produce the same stream.
std::unique_ptr<RecordSource> MakeWorkload(Dataset dataset,
                                           const WorkloadOptions& options);

/// Streams records out of a record file, decoding each read straight into
/// the caller's buffer through RecordReader::Read. A read error still
/// delivers every record decoded before it.
class FileRecordSource : public RecordSource {
 public:
  FileRecordSource(Env* env, const std::string& path,
                   size_t block_bytes = kDefaultBlockBytes);

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    return reader_.Read(out, cap, n);
  }

 private:
  RecordReader reader_;
};

/// Materializes a workload into a record file (benchmark setup helper).
Status WriteWorkloadToFile(Env* env, Dataset dataset,
                           const WorkloadOptions& options,
                           const std::string& path);

}  // namespace twrs

#endif  // TWRS_WORKLOAD_GENERATORS_H_
