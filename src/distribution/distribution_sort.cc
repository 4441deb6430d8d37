#include "distribution/distribution_sort.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "merge/external_sorter.h"
#include "simd/kernels.h"
#include "workload/generators.h"

namespace twrs {

namespace {

// State of one distribution sort execution. All scratch files live inside
// `work_dir`, a unique per-sort subdirectory of options.temp_dir, so
// concurrent distribution sorts sharing a temp_dir never collide.
class Context {
 public:
  Context(Env* env, const DistributionSortOptions& options,
          std::string work_dir, RecordWriter* output,
          DistributionSortStats* stats)
      : env_(env),
        options_(options),
        work_dir_(std::move(work_dir)),
        output_(output),
        stats_(stats) {}

  std::string NextTempPath() {
    return work_dir_ + "/bucket_" + std::to_string(counter_++);
  }

  // Sorts the bucket file `path` (count records spanning [min,max]) and
  // appends the result to the output; consumes (deletes) the file.
  Status SortBucket(const std::string& path, uint64_t count, Key min_key,
                    Key max_key, size_t depth) {
    if (stats_ != nullptr) {
      stats_->max_depth_reached =
          std::max<uint64_t>(stats_->max_depth_reached, depth);
    }
    if (count == 0) {
      return env_->RemoveFile(path);
    }
    if (count <= options_.memory_records) {
      // Leaf: the bucket fits in memory (§2.2 step 3 with internal sort).
      std::vector<Key> keys;
      TWRS_RETURN_IF_ERROR(ReadAllRecords(env_, path, &keys));
      simd::SortKeysBlock(keys.data(), keys.size());
      for (Key k : keys) TWRS_RETURN_IF_ERROR(output_->Append(k));
      if (stats_ != nullptr) ++stats_->in_memory_sorts;
      return env_->RemoveFile(path);
    }
    const uint64_t span =
        static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key);
    if (depth >= options_.max_depth || span < options_.num_buckets) {
      // Splitting cannot make progress (heavy clustering); fall back to
      // external mergesort for this bucket (§2.2 allows any external sort).
      return Fallback(path);
    }
    return Distribute(path, min_key, max_key, depth);
  }

 private:
  Status Distribute(const std::string& path, Key min_key, Key max_key,
                    size_t depth) {
    const size_t buckets = options_.num_buckets;
    const uint64_t span =
        static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key);
    const uint64_t width = span / buckets + 1;

    struct Bucket {
      std::string path;
      std::unique_ptr<RecordWriter> writer;
      uint64_t count = 0;
      Key min_key = 0;
      Key max_key = 0;
    };
    std::vector<Bucket> out(buckets);
    for (Bucket& b : out) {
      b.path = NextTempPath();
      b.writer =
          std::make_unique<RecordWriter>(env_, b.path, options_.block_bytes);
      TWRS_RETURN_IF_ERROR(b.writer->status());
    }

    RecordReader reader(env_, path, options_.block_bytes);
    TWRS_RETURN_IF_ERROR(reader.status());
    for (;;) {
      Key key;
      bool eof;
      TWRS_RETURN_IF_ERROR(reader.Next(&key, &eof));
      if (eof) break;
      const uint64_t idx =
          (static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key)) /
          width;
      Bucket& b = out[idx];
      if (b.count == 0) {
        b.min_key = b.max_key = key;
      } else {
        b.min_key = std::min(b.min_key, key);
        b.max_key = std::max(b.max_key, key);
      }
      ++b.count;
      TWRS_RETURN_IF_ERROR(b.writer->Append(key));
    }
    for (Bucket& b : out) TWRS_RETURN_IF_ERROR(b.writer->Finish());
    TWRS_RETURN_IF_ERROR(env_->RemoveFile(path));
    if (stats_ != nullptr) ++stats_->distribution_passes;

    // Buckets hold disjoint, increasing ranges: sorting them in order and
    // concatenating yields the final sorted sequence (§2.2 step 4).
    for (Bucket& b : out) {
      TWRS_RETURN_IF_ERROR(
          SortBucket(b.path, b.count, b.min_key, b.max_key, depth + 1));
    }
    return Status::OK();
  }

  Status Fallback(const std::string& path) {
    ExternalSortOptions sort_options;
    sort_options.algorithm = RunGenAlgorithm::kReplacementSelection;
    sort_options.memory_records = options_.memory_records;
    // ExternalSorter works in a unique subdirectory of its temp_dir, so
    // fallback sorts can share the work dir without clashing.
    sort_options.temp_dir = work_dir_;
    sort_options.block_bytes = options_.block_bytes;
    ExternalSorter sorter(env_, sort_options);
    const std::string sorted_path = NextTempPath();

    FileRecordSource bucket_source(env_, path, options_.block_bytes);
    TWRS_RETURN_IF_ERROR(sorter.Sort(&bucket_source, sorted_path, nullptr));
    RecordReader sorted(env_, sorted_path, options_.block_bytes);
    TWRS_RETURN_IF_ERROR(sorted.status());
    for (;;) {
      Key key;
      bool eof;
      TWRS_RETURN_IF_ERROR(sorted.Next(&key, &eof));
      if (eof) break;
      TWRS_RETURN_IF_ERROR(output_->Append(key));
    }
    if (stats_ != nullptr) ++stats_->fallback_sorts;
    TWRS_RETURN_IF_ERROR(env_->RemoveFile(sorted_path));
    return env_->RemoveFile(path);
  }

  Env* env_;
  const DistributionSortOptions& options_;
  std::string work_dir_;
  RecordWriter* output_;
  DistributionSortStats* stats_;
  uint64_t counter_ = 0;
};

// Stages `source` under `work_dir` and sorts it into `output_path`,
// leaving `work_dir` empty on success.
Status StageAndSort(Env* env, RecordSource* source,
                    const DistributionSortOptions& options,
                    const std::string& work_dir,
                    const std::string& output_path,
                    DistributionSortStats* stats) {
  // Pass 0: materialize the stream while learning its range — a streaming
  // input's min/max are unknown up front (the paper assumes a known range;
  // this pass removes that assumption).
  const std::string staging = work_dir + "/staging";
  uint64_t count = 0;
  Key min_key = 0;
  Key max_key = 0;
  {
    RecordWriter writer(env, staging, options.block_bytes);
    TWRS_RETURN_IF_ERROR(writer.status());
    std::vector<Key> batch(RecordSource::kReadBatch);
    for (size_t n = batch.size(); n == batch.size();) {
      // A failed read must not pass for a short input and yield a sorted
      // but truncated output.
      TWRS_RETURN_IF_ERROR(source->Read(batch.data(), batch.size(), &n));
      for (size_t i = 0; i < n; ++i) {
        const Key key = batch[i];
        if (count == 0) {
          min_key = max_key = key;
        } else {
          min_key = std::min(min_key, key);
          max_key = std::max(max_key, key);
        }
        ++count;
      }
      TWRS_RETURN_IF_ERROR(writer.AppendBatch(batch.data(), n));
    }
    TWRS_RETURN_IF_ERROR(writer.Finish());
  }

  RecordWriter output(env, output_path, options.block_bytes);
  TWRS_RETURN_IF_ERROR(output.status());
  Context context(env, options, work_dir, &output, stats);
  TWRS_RETURN_IF_ERROR(
      context.SortBucket(staging, count, min_key, max_key, 0));
  return output.Finish();
}

}  // namespace

Status DistributionSort(Env* env, RecordSource* source,
                        const DistributionSortOptions& options,
                        const std::string& output_path,
                        DistributionSortStats* stats) {
  if (options.num_buckets < 2) {
    return Status::InvalidArgument("num_buckets must be at least 2");
  }
  const std::string work_dir =
      options.temp_dir + "/" + UniqueScratchDirName("dist");
  TWRS_RETURN_IF_ERROR(env->CreateDirIfMissing(work_dir));
  const Status s =
      StageAndSort(env, source, options, work_dir, output_path, stats);
  if (!s.ok()) {
    RemoveTreeBestEffort(env, work_dir);
    return s;
  }
  return env->RemoveDir(work_dir);
}

}  // namespace twrs
