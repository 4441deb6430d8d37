#include "shard/sharded_sorter.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "io/record_io.h"
#include "simd/kernels.h"
#include "util/stopwatch.h"
#include "workload/generators.h"

namespace twrs {

ShardedSorter::ShardedSorter(Env* env, ShardedSortOptions options)
    : env_(env), options_(std::move(options)) {}

Status ShardedSorter::Validate() const {
  if (options_.shards < 1) {
    return Status::InvalidArgument("shards must be at least 1");
  }
  if (options_.sample_size < 1) {
    return Status::InvalidArgument("sample_size must be at least 1");
  }
  if (options_.shards > 1 && options_.sort.limit > 0) {
    // A top-K sort writes min(K, N) records, not N, so the range-disjoint
    // per-shard output layout cannot apply. The service plans top-K jobs
    // at 1 shard (ShardPlanLimit::kTopKSelection) for the same reason.
    return Status::InvalidArgument(
        "top-K sorts (limit > 0) run unsharded; plan 1 shard");
  }
  return Status::OK();
}

Status ShardedSorter::SortUnsharded(RecordSource* source,
                                    const std::string& output_path,
                                    ShardedSortResult* result) {
  ShardedSortResult local;
  Stopwatch total_watch;
  ExternalSortOptions sort_options = options_.sort;
  if (sort_options.parallel.executor == nullptr) {
    sort_options.parallel.executor = options_.executor;
  }
  ExternalSorter sorter(env_, sort_options);
  ExternalSortResult sort_result;
  TWRS_RETURN_IF_ERROR(sorter.Sort(source, output_path, &sort_result));
  // For a top-K sort the output is smaller than the input; report both
  // truthfully (they coincide for a full sort).
  local.input_records = sort_result.run_gen.total_records;
  local.output_records = sort_result.output_records;
  local.bytes_read = sort_result.bytes_read;
  local.bytes_written = sort_result.bytes_written;
  local.shard_records = {sort_result.output_records};
  local.shard_results = {sort_result};
  local.sort_seconds = sort_result.total_seconds;
  local.total_seconds = total_watch.ElapsedSeconds();
  if (result != nullptr) *result = local;
  return Status::OK();
}

Status ShardedSorter::Sort(RecordSource* source,
                           const std::string& output_path,
                           ShardedSortResult* result) {
  TWRS_RETURN_IF_ERROR(Validate());
  if (options_.shards == 1) {
    return SortUnsharded(source, output_path, result);
  }

  Stopwatch staging_watch;
  // Resolve the I/O backend once for the whole job so staging, splitting
  // and every per-shard sub-sort run on the same Env (the sub-sorts get
  // io_backend cleared in SortStaged — they must keep this CountingEnv,
  // not re-resolve and bypass the byte accounting).
  Env* base_env = env_;
  if (options_.sort.io_backend != IoBackend::kDefault) {
    IoBackend resolved = IoBackend::kDefault;
    TWRS_RETURN_IF_ERROR(ResolveIoBackend(options_.sort.io_backend, &resolved));
    if (resolved != IoBackend::kDefault) {
      base_env = Env::Default(resolved);
    }
  }
  CountingEnv env(base_env);
  env.WatchPath(output_path);
  // Job-level byte progress comes from this outer env; the per-shard
  // sub-sorts below run with progress_bytes off so their nested
  // CountingEnvs don't double-count the same I/O.
  if (options_.sort.progress != nullptr) {
    env.MirrorBytesTo(options_.sort.progress->bytes_read_counter(),
                      options_.sort.progress->bytes_written_counter());
  }
  const CancelToken* cancel = options_.sort.cancel;
  const std::string shard_dir =
      options_.sort.temp_dir + "/" + UniqueScratchDirName("shard");
  TWRS_RETURN_IF_ERROR(env.CreateDirIfMissing(shard_dir));

  // Pass 0: materialize the stream while reservoir-sampling it — a
  // streaming input's key distribution is unknown up front.
  const std::string staged = shard_dir + "/staging";
  ReservoirSampler sampler(options_.sample_size, options_.sample_seed);
  uint64_t count = 0;
  Status s;
  {
    RecordWriter writer(&env, staged, options_.split_block_bytes);
    s = writer.status();
    std::vector<Key> batch(RecordSource::kReadBatch);
    for (size_t n = batch.size(); s.ok() && n == batch.size();) {
      if (IsCancelled(cancel)) {
        s = Status::Cancelled("sharded sort cancelled during staging");
        break;
      }
      s = source->Read(batch.data(), batch.size(), &n);
      if (!s.ok()) break;
      for (size_t i = 0; i < n; ++i) sampler.Add(batch[i]);
      count += n;
      s = writer.AppendBatch(batch.data(), n);
    }
    if (s.ok()) s = writer.Finish();
  }
  if (s.ok()) {
    s = SortStaged(&env, staged, /*remove_staged=*/true, shard_dir,
                   sampler.sample(), count, staging_watch.ElapsedSeconds(),
                   output_path, result);
  }
  if (!s.ok()) {
    CleanupScratch(staged, /*remove_staged=*/true, shard_dir);
    // An output this sort truncated is now torn and is removed; a file
    // the sort never opened is left alone.
    if (env.watched_created()) {
      TWRS_IGNORE_STATUS(env_->RemoveFile(output_path));
    }
  }
  return s;
}

Status ShardedSorter::SortFile(const std::string& input_path,
                               const std::string& output_path,
                               ShardedSortResult* result) {
  TWRS_RETURN_IF_ERROR(Validate());
  if (options_.shards == 1) {
    FileRecordSource source(env_, input_path, options_.sort.block_bytes);
    return SortUnsharded(&source, output_path, result);
  }

  Stopwatch staging_watch;
  // Resolve the I/O backend once for the whole job so staging, splitting
  // and every per-shard sub-sort run on the same Env (the sub-sorts get
  // io_backend cleared in SortStaged — they must keep this CountingEnv,
  // not re-resolve and bypass the byte accounting).
  Env* base_env = env_;
  if (options_.sort.io_backend != IoBackend::kDefault) {
    IoBackend resolved = IoBackend::kDefault;
    TWRS_RETURN_IF_ERROR(ResolveIoBackend(options_.sort.io_backend, &resolved));
    if (resolved != IoBackend::kDefault) {
      base_env = Env::Default(resolved);
    }
  }
  CountingEnv env(base_env);
  env.WatchPath(output_path);
  // Job-level byte progress comes from this outer env; the per-shard
  // sub-sorts below run with progress_bytes off so their nested
  // CountingEnvs don't double-count the same I/O.
  if (options_.sort.progress != nullptr) {
    env.MirrorBytesTo(options_.sort.progress->bytes_read_counter(),
                      options_.sort.progress->bytes_written_counter());
  }
  const CancelToken* cancel = options_.sort.cancel;
  const std::string shard_dir =
      options_.sort.temp_dir + "/" + UniqueScratchDirName("shard");
  TWRS_RETURN_IF_ERROR(env.CreateDirIfMissing(shard_dir));

  // Pass 0: sample straight off the file — no staging copy needed, the
  // partition pass below re-reads it.
  ReservoirSampler sampler(options_.sample_size, options_.sample_seed);
  uint64_t count = 0;
  Status s;
  {
    RecordReader reader(&env, input_path, options_.split_block_bytes);
    s = reader.status();
    while (s.ok()) {
      if (IsCancelled(cancel)) {
        s = Status::Cancelled("sharded sort cancelled during sampling");
        break;
      }
      Key key;
      bool eof;
      s = reader.Next(&key, &eof);
      if (!s.ok() || eof) break;
      sampler.Add(key);
      ++count;
    }
  }
  if (s.ok()) {
    s = SortStaged(&env, input_path, /*remove_staged=*/false, shard_dir,
                   sampler.sample(), count, staging_watch.ElapsedSeconds(),
                   output_path, result);
  }
  if (!s.ok()) {
    CleanupScratch(input_path, /*remove_staged=*/false, shard_dir);
    if (env.watched_created()) {
      TWRS_IGNORE_STATUS(env_->RemoveFile(output_path));  // torn
    }
  }
  return s;
}

Status ShardedSorter::SortStaged(CountingEnv* env,
                                 const std::string& staged_path,
                                 bool remove_staged,
                                 const std::string& shard_dir,
                                 const std::vector<Key>& sample,
                                 uint64_t input_records,
                                 double prior_seconds,
                                 const std::string& output_path,
                                 ShardedSortResult* result) {
  Stopwatch total_watch;
  Stopwatch phase_watch;
  const CancelToken* cancel = options_.sort.cancel;
  ShardedSortResult local;
  local.input_records = input_records;
  local.splitters = PickSplitters(sample, options_.shards);
  const size_t num_shards = local.splitters.size() + 1;
  local.shard_records.assign(num_shards, 0);

  // Partition pass: route every record to its range shard. Shard i covers
  // [splitter[i-1], splitter[i]) — upper_bound counts the splitters <= key,
  // so duplicate keys always land in one shard.
  std::vector<std::string> shard_paths(num_shards);
  {
    std::vector<std::unique_ptr<RecordWriter>> writers(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shard_paths[i] = shard_dir + "/shard_" + std::to_string(i);
      writers[i] = std::make_unique<RecordWriter>(
          env, shard_paths[i], options_.split_block_bytes);
      TWRS_RETURN_IF_ERROR(writers[i]->status());
    }
    RecordReader reader(env, staged_path, options_.split_block_bytes);
    TWRS_RETURN_IF_ERROR(reader.status());
    // Batched classification: read a block of keys, classify all of them
    // branchlessly against the splitters (simd::PartitionBySplitters),
    // then scatter each shard's keys to its writer in one bulk append.
    constexpr size_t kPartitionBatch = 4096;
    std::vector<Key> batch(kPartitionBatch);
    std::vector<uint32_t> bucket(kPartitionBatch);
    std::vector<std::vector<Key>> staged(num_shards);
    for (auto& s : staged) s.reserve(kPartitionBatch);
    for (;;) {
      if (IsCancelled(cancel)) {
        return Status::Cancelled("sharded sort cancelled during partition");
      }
      size_t got = 0;
      TWRS_RETURN_IF_ERROR(reader.Read(batch.data(), batch.size(), &got));
      if (got == 0) break;
      simd::PartitionBySplitters(batch.data(), got, local.splitters.data(),
                                 local.splitters.size(), bucket.data());
      for (size_t i = 0; i < got; ++i) staged[bucket[i]].push_back(batch[i]);
      for (size_t s = 0; s < num_shards; ++s) {
        if (staged[s].empty()) continue;
        local.shard_records[s] += staged[s].size();
        TWRS_RETURN_IF_ERROR(
            writers[s]->AppendBatch(staged[s].data(), staged[s].size()));
        staged[s].clear();
      }
    }
    for (auto& writer : writers) TWRS_RETURN_IF_ERROR(writer->Finish());
  }
  if (remove_staged) TWRS_RETURN_IF_ERROR(env->RemoveFile(staged_path));
  local.split_seconds = prior_seconds + phase_watch.ElapsedSeconds();

  // Shard byte ranges of the output, known before any sort starts: shards
  // hold disjoint, increasing key ranges and the partition pass counted
  // their records exactly, so shard i's sorted bytes begin at the prefix
  // sum of the earlier shards. Each shard's final merge writes that range
  // directly (SortIntoRange) — no concatenation pass re-reads and
  // re-writes the output.
  std::vector<uint64_t> shard_offsets(num_shards, 0);
  for (size_t i = 1; i < num_shards; ++i) {
    shard_offsets[i] =
        shard_offsets[i - 1] + local.shard_records[i - 1] * kRecordBytes;
  }
  // Truncate-create the shared output exactly once, before any range
  // writer opens it; the ranges then extend it to its final size.
  {
    std::unique_ptr<RandomRWFile> out;
    TWRS_RETURN_IF_ERROR(env->NewRandomRWFile(output_path, &out));
    TWRS_RETURN_IF_ERROR(out->Close());
  }

  // A sort-level on_merge_begin would fire once per shard, while the
  // caller (e.g. SortService's lease downsize) wants one job-level signal
  // when run generation is over everywhere. Aggregate: count shards down
  // and fire the original callback once, with the shards' combined merge
  // footprint.
  const std::function<void(size_t)> job_on_merge_begin =
      options_.sort.on_merge_begin;
  auto merge_begin_remaining = std::make_shared<std::atomic<size_t>>(
      num_shards);
  auto merge_records_total = std::make_shared<std::atomic<uint64_t>>(0);

  // Concurrent per-shard sorts: each shard runs the complete external-sort
  // phase pipeline on the executor. Nested waits (a shard's own parallel
  // leaf merges on the same pool) are safe because TaskHandle::Wait is
  // work-helping.
  Executor* executor =
      options_.executor != nullptr ? options_.executor : &Executor::Shared();
  ThreadPool* pool = executor->pool();
  local.shard_results.assign(num_shards, ExternalSortResult());
  phase_watch.Reset();
  {
    std::vector<TaskHandle> handles(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      ExternalSortOptions shard_options = options_.sort;
      shard_options.temp_dir = shard_dir;
      // Bytes are mirrored once by the caller's CountingEnv (see Sort /
      // SortFile); phase and record progress still flow through.
      shard_options.progress_bytes = false;
      // The backend was already resolved into that CountingEnv's base; a
      // sub-sort re-resolving it would swap out the counting layer.
      shard_options.io_backend = IoBackend::kDefault;
      if (shard_options.parallel.executor == nullptr) {
        shard_options.parallel.executor = executor;
      }
      if (job_on_merge_begin) {
        shard_options.on_merge_begin =
            [&job_on_merge_begin, merge_begin_remaining,
             merge_records_total](size_t merge_records) {
              merge_records_total->fetch_add(merge_records,
                                             std::memory_order_relaxed);
              if (merge_begin_remaining->fetch_sub(
                      1, std::memory_order_acq_rel) == 1) {
                job_on_merge_begin(static_cast<size_t>(
                    merge_records_total->load(std::memory_order_relaxed)));
              }
            };
      }
      MergeOutputRange range;
      range.positioned = true;
      range.offset = shard_offsets[i];
      range.length = local.shard_records[i] * kRecordBytes;
      ExternalSortResult* shard_result = &local.shard_results[i];
      const std::string shard_path = shard_paths[i];
      handles[i] = pool->Submit(
          [env, shard_options, shard_path, output_path, range, shard_result] {
            ExternalSorter sorter(env, shard_options);
            FileRecordSource shard_source(env, shard_path,
                                          shard_options.block_bytes);
            return sorter.SortIntoRange(&shard_source, output_path, range,
                                        shard_result);
          });
    }
    // Collect every shard before reporting the first failure, so no task
    // still references local state when we unwind.
    Status first_error;
    for (TaskHandle& handle : handles) {
      Status s = handle.Wait();
      if (!s.ok() && first_error.ok()) first_error = std::move(s);
    }
    TWRS_RETURN_IF_ERROR(first_error);
  }
  local.sort_seconds = phase_watch.ElapsedSeconds();

  for (size_t i = 0; i < num_shards; ++i) {
    TWRS_RETURN_IF_ERROR(env->RemoveFile(shard_paths[i]));
  }
  TWRS_RETURN_IF_ERROR(env->RemoveDir(shard_dir));

  for (const ExternalSortResult& r : local.shard_results) {
    local.output_records += r.output_records;
  }
  if (local.output_records != local.input_records) {
    return Status::Corruption(
        "sharded sort lost records: in=" +
        std::to_string(local.input_records) +
        " out=" + std::to_string(local.output_records));
  }
  local.bytes_read = env->bytes_read();
  local.bytes_written = env->bytes_written();
  local.total_seconds = prior_seconds + total_watch.ElapsedSeconds();
  if (result != nullptr) *result = std::move(local);
  return Status::OK();
}

void ShardedSorter::CleanupScratch(const std::string& staged_path,
                                   bool remove_staged,
                                   const std::string& shard_dir) {
  // Statuses are deliberately ignored: this runs after a failure, on files
  // that may never have existed.
  if (remove_staged) TWRS_IGNORE_STATUS(env_->RemoveFile(staged_path));
  // Shard paths are deterministic, so remove them by name first: this
  // works on any Env, including ones that keep the default NotSupported
  // ListDir (where the tree removal below is a no-op).
  for (size_t i = 0; i < options_.shards; ++i) {
    TWRS_IGNORE_STATUS(
        env_->RemoveFile(shard_dir + "/shard_" + std::to_string(i)));
  }
  // The recursive removal catches what deterministic names cannot: the
  // nested sort_* scratch directory of a per-shard sort that failed
  // partway, with its run files inside.
  RemoveTreeBestEffort(env_, shard_dir);
}

}  // namespace twrs
