// twrs_sort: command-line external sort for record files (8-byte
// little-endian keys), exposing the library's full configuration surface.
//
//   twrs_sort [options] <input> <output>
//   twrs_sort --generate <dataset> --records N <output>
//
// Options:
//   --algorithm rs|2wrs|lss           run generation algorithm (default 2wrs)
//   --memory N                        memory budget in records (default 64Ki)
//   --fan-in N                        merge fan-in (default 10)
//   --temp-dir PATH                   scratch directory (default /tmp/twrs_sort)
//   --threads N                       N > 0 enables the pipelined path
//                                     (0 = serial, default); workers come
//                                     from the shared executor — size it
//                                     with --executor-threads
//   --io-backend posix|uring|auto     file I/O backend (default posix).
//                                     `uring` requires a kernel with
//                                     io_uring and a TWRS_WITH_URING
//                                     build and fails loudly otherwise;
//                                     `auto` degrades to posix silently
//   --rungen-threads N|auto           run generators sharing --memory on the
//                                     shared executor (1 = serial, default);
//                                     `auto` plans the most that add no merge
//                                     pass, from the input size, --memory,
//                                     --fan-in and the executor load.
//                                     N > 1 borrows the pool, --threads or not
//   --final-merge-threads N|auto      partitions of the final merge pass
//                                     (1 = serial, default): N partial merges
//                                     run concurrently, each writing its own
//                                     byte range of the output; `auto` takes
//                                     the planner's choice (or the executor
//                                     workers the run generators leave over
//                                     when --rungen-threads is fixed).
//                                     N > 1 borrows the pool, --threads or not
//   --executor-threads N              capacity of the process-wide shared
//                                     executor (0 = hardware concurrency)
//   --limit K                         top-K selection: write only the K
//                                     smallest (or largest, with
//                                     --order desc) keys, still ascending.
//                                     Small K runs the bounded dual-heap
//                                     selector; large K sorts normally and
//                                     prunes the merge
//   --order asc|desc                  which end of the key space --limit
//                                     keeps (default asc = smallest)
//   --verify                          check the output after sorting
//   --generate DATASET                write a workload instead of sorting:
//                                     sorted|reverse|alternating|random|mixed|imbalanced
//   --records N                       records for --generate (default 1M)
//   --seed N                          workload seed (default 1)

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/record.h"
#include "examples/cli_util.h"
#include "exec/executor.h"
#include "io/env.h"
#include "merge/external_sorter.h"
#include "service/parallel_planner.h"
#include "workload/generators.h"

namespace {

int Usage() {
  fprintf(stderr,
          "usage: twrs_sort [options] <input> <output>\n"
          "       twrs_sort --generate <dataset> --records N <output>\n"
          "run `head -49 examples/twrs_sort.cpp` for the option list\n");
  return 2;
}

using twrs::examples::ParseCount;

bool ParseAlgorithm(const std::string& name, twrs::RunGenAlgorithm* out) {
  if (name == "rs") {
    *out = twrs::RunGenAlgorithm::kReplacementSelection;
  } else if (name == "2wrs") {
    *out = twrs::RunGenAlgorithm::kTwoWayReplacementSelection;
  } else if (name == "lss") {
    *out = twrs::RunGenAlgorithm::kLoadSortStore;
  } else {
    return false;
  }
  return true;
}

bool ParseDataset(const std::string& name, twrs::Dataset* out) {
  if (name == "sorted") {
    *out = twrs::Dataset::kSorted;
  } else if (name == "reverse") {
    *out = twrs::Dataset::kReverseSorted;
  } else if (name == "alternating") {
    *out = twrs::Dataset::kAlternating;
  } else if (name == "random") {
    *out = twrs::Dataset::kRandom;
  } else if (name == "mixed") {
    *out = twrs::Dataset::kMixed;
  } else if (name == "imbalanced") {
    *out = twrs::Dataset::kMixedImbalanced;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  twrs::ExternalSortOptions options;
  options.memory_records = 64 * 1024;
  options.temp_dir = "/tmp/twrs_sort";
  twrs::IoBackend io_backend = twrs::IoBackend::kDefault;
  uint64_t rungen_threads = 1;
  bool rungen_auto = false;
  uint64_t final_merge_threads = 1;
  bool final_merge_auto = false;
  uint64_t executor_threads = 0;
  bool verify = false;
  bool generate = false;
  twrs::Dataset dataset = twrs::Dataset::kRandom;
  uint64_t records = 1000000;
  uint64_t seed = 1;
  std::string positional[2];
  int positionals = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--algorithm") {
      const char* v = next();
      if (v == nullptr || !ParseAlgorithm(v, &options.algorithm)) {
        return Usage();
      }
    } else if (arg == "--memory") {
      uint64_t v = 0;
      if (!ParseCount(next(), &v)) return Usage();
      options.memory_records = v;
    } else if (arg == "--fan-in") {
      uint64_t v = 0;
      if (!ParseCount(next(), &v)) return Usage();
      options.fan_in = v;
    } else if (arg == "--temp-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.temp_dir = v;
    } else if (arg == "--threads") {
      uint64_t v = 0;
      if (!ParseCount(next(), &v) || v > 1024) return Usage();
      options.parallel.worker_threads = v;
    } else if (arg == "--io-backend") {
      const char* v = next();
      if (v == nullptr || !twrs::ParseIoBackend(v, &io_backend)) {
        return Usage();
      }
    } else if (arg == "--rungen-threads") {
      const char* v = next();
      if (v != nullptr && std::string(v) == "auto") {
        rungen_auto = true;
      } else {
        uint64_t n = 0;
        if (!ParseCount(v, &n) || n > 1024) return Usage();
        if (n == 0) {
          fprintf(stderr,
                  "--rungen-threads must be at least 1 (got 0); use "
                  "`auto` for the planned count\n");
          return 2;
        }
        rungen_threads = n;
      }
    } else if (arg == "--final-merge-threads") {
      const char* v = next();
      if (v != nullptr && std::string(v) == "auto") {
        final_merge_auto = true;
      } else {
        uint64_t n = 0;
        if (!ParseCount(v, &n) || n > 1024) return Usage();
        if (n == 0) {
          fprintf(stderr,
                  "--final-merge-threads must be at least 1 (got 0); use "
                  "`auto` for the planned count\n");
          return 2;
        }
        final_merge_threads = n;
      }
    } else if (arg == "--executor-threads") {
      uint64_t v = 0;
      if (!ParseCount(next(), &v) || v > 1024) return Usage();
      executor_threads = v;
    } else if (arg == "--limit") {
      if (!ParseCount(next(), &options.limit)) return Usage();
    } else if (arg == "--order") {
      const char* v = next();
      if (v == nullptr) return Usage();
      const std::string order = v;
      if (order == "asc") {
        options.order = twrs::SelectOrder::kAscending;
      } else if (order == "desc") {
        options.order = twrs::SelectOrder::kDescending;
      } else {
        return Usage();
      }
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--generate") {
      const char* v = next();
      if (v == nullptr || !ParseDataset(v, &dataset)) return Usage();
      generate = true;
    } else if (arg == "--records") {
      if (!ParseCount(next(), &records)) return Usage();
    } else if (arg == "--seed") {
      if (!ParseCount(next(), &seed)) return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      fprintf(stderr, "unknown option %s\n", arg.c_str());
      return Usage();
    } else if (positionals < 2) {
      positional[positionals++] = arg;
    } else {
      return Usage();
    }
  }

  // Resolve the I/O backend up front: an explicit `--io-backend uring` on
  // a kernel or build without io_uring is a configuration error and fails
  // here with one line, before any file is touched.
  twrs::IoBackend resolved_backend = twrs::IoBackend::kPosix;
  {
    twrs::Status s = twrs::ResolveIoBackend(io_backend, &resolved_backend);
    if (!s.ok()) {
      fprintf(stderr, "twrs_sort: %s\n", s.ToString().c_str());
      return 2;
    }
    if (resolved_backend == twrs::IoBackend::kDefault) {
      resolved_backend = twrs::IoBackend::kPosix;
    }
  }
  twrs::Env* env = twrs::Env::Default(resolved_backend);

  if (generate) {
    if (positionals != 1) return Usage();
    twrs::WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = seed;
    twrs::Status s =
        twrs::WriteWorkloadToFile(env, dataset, workload, positional[0]);
    if (!s.ok()) {
      fprintf(stderr, "generate: %s\n", s.ToString().c_str());
      return 1;
    }
    printf("wrote %llu %s records to %s\n",
           static_cast<unsigned long long>(records),
           twrs::DatasetName(dataset), positional[0].c_str());
    return 0;
  }

  if (positionals != 2) return Usage();
  printf("io backend: %s\n", twrs::IoBackendName(resolved_backend));
  if (executor_threads > 0 &&
      !twrs::Executor::ConfigureShared(executor_threads)) {
    fprintf(stderr,
            "--executor-threads: the shared executor already started\n");
    return 2;
  }
  // Fail on an unusable scratch directory now, with an actionable message,
  // instead of with an I/O error minutes into the sort.
  twrs::Status s = twrs::PreflightTempDir(env, options.temp_dir);
  if (!s.ok()) {
    fprintf(stderr, "twrs_sort: %s\n", s.ToString().c_str());
    return 1;
  }
  if (rungen_auto) {
    twrs::ParallelPlanInputs plan_inputs;
    uint64_t input_bytes = 0;
    s = env->GetFileSize(positional[0], &input_bytes);
    if (!s.ok()) {
      fprintf(stderr, "twrs_sort: %s\n", s.ToString().c_str());
      return 1;
    }
    plan_inputs.input_records = input_bytes / twrs::kRecordBytes;
    plan_inputs.memory_records = options.memory_records;
    plan_inputs.algorithm = options.algorithm;
    plan_inputs.fan_in = options.fan_in;
    plan_inputs.executor_capacity = twrs::Executor::Shared().capacity();
    plan_inputs.executor_inflight = twrs::Executor::Shared().inflight_tasks();
    twrs::ParallelPlan plan;
    if (twrs::ResolveTopKStrategy(options.limit, options.topk_strategy,
                                  options.memory_records) ==
        twrs::TopKStrategy::kDualHeap) {
      plan.limit = twrs::ParallelPlanLimit::kTopKSelection;  // no runs
    } else {
      plan = twrs::PlanParallelism(plan_inputs);
    }
    rungen_threads = plan.run_generation_threads;
    if (final_merge_auto) final_merge_threads = plan.final_merge_threads;
    printf("--rungen-threads auto: planned %llu run generators (%s)\n",
           static_cast<unsigned long long>(rungen_threads),
           twrs::ParallelPlanLimitName(plan.limit));
  } else if (final_merge_auto) {
    // No plan to borrow from: spread the executor over the fixed
    // generator count.
    final_merge_threads = std::max<uint64_t>(
        1, twrs::Executor::Shared().capacity() / rungen_threads);
  }
  if (final_merge_auto) {
    printf("--final-merge-threads auto: %llu partitions per final merge\n",
           static_cast<unsigned long long>(final_merge_threads));
  }
  options.parallel.run_generation_threads =
      static_cast<size_t>(rungen_threads);
  options.parallel.final_merge_threads =
      static_cast<size_t>(final_merge_threads);
  twrs::ExternalSorter sorter(env, options);
  twrs::FileRecordSource source(env, positional[0]);
  twrs::ExternalSortResult result;
  s = sorter.Sort(&source, positional[1], &result);
  if (!s.ok()) {
    fprintf(stderr, "sort: %s\n", s.ToString().c_str());
    return 1;
  }
  if (options.limit > 0) {
    printf("top-%llu (%s) via %s: %llu of %llu records kept\n",
           static_cast<unsigned long long>(options.limit),
           twrs::SelectOrderName(options.order),
           twrs::TopKStrategyName(result.topk_strategy),
           static_cast<unsigned long long>(result.output_records),
           static_cast<unsigned long long>(result.run_gen.total_records));
    if (result.topk_strategy == twrs::TopKStrategy::kRunPruningMerge) {
      printf("pruned: %llu runs, %llu records never read\n",
             static_cast<unsigned long long>(result.merge.runs_pruned),
             static_cast<unsigned long long>(result.merge.records_pruned));
    }
  }
  printf("%s: %llu records, %llu runs (avg %.2fx memory), "
         "gen %.3fs + merge %.3fs = %.3fs\n",
         twrs::RunGenAlgorithmName(options.algorithm),
         static_cast<unsigned long long>(result.output_records),
         static_cast<unsigned long long>(result.run_gen.num_runs()),
         result.run_gen.AverageRunLengthRelative(options.memory_records),
         result.run_gen_seconds, result.merge_seconds,
         result.total_seconds);
  if (verify) {
    uint64_t count = 0;
    s = twrs::VerifySortedFile(env, positional[1], &count, nullptr);
    if (!s.ok()) {
      fprintf(stderr, "verify: %s\n", s.ToString().c_str());
      return 1;
    }
    printf("verified: %llu records sorted\n",
           static_cast<unsigned long long>(count));
  }
  return 0;
}
