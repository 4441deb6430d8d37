// perf_sort: one workload of the end-to-end sort benchmark.
//
//   perf_sort --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--records N] [--memory M]
//
// Generates the workload's input from the seed, sorts it repeatedly through
// ExternalSorter::Sort for S seconds, verifies every output outside the
// timed window, and prints every metric as "name value unit", then one JSON
// line. With --trace 1 it also makes one separate traced sort whose wall
// time is split into layers by timing calls into their public functions
// from outside (TimingEnv, RunGenStats, MergeStats, the simd and io_uring
// counters); nothing inside the engine is instrumented. run.py builds this
// binary and is the command BENCHMARK.json names.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "io/record_io.h"
#include "io/uring_env.h"
#include "merge/external_sorter.h"
#include "obs/metrics.h"
#include "simd/dispatch.h"
#include "timing_env.h"
#include "util/checksum.h"
#include "util/stopwatch.h"
#include "workload/generators.h"

namespace twrs {
namespace perfbench {
namespace {

// Why each workload was chosen, and which layers it exercises, is recorded
// in BENCHMARK.json. All of them sort an input far larger than memory
// except topk_random, whose K stays inside it.
struct Workload {
  const char* name;
  Dataset dataset;
  RunGenAlgorithm algorithm;
  size_t threads;  // shared-executor capacity; 0 runs the sort serially
  IoBackend backend;
  bool topk;
};

constexpr Workload kWorkloads[] = {
    {"mixed_2wrs", Dataset::kMixed,
     RunGenAlgorithm::kTwoWayReplacementSelection, 0, IoBackend::kPosix,
     false},
    {"random_lss", Dataset::kRandom, RunGenAlgorithm::kLoadSortStore, 0,
     IoBackend::kPosix, false},
    {"random_2wrs_par2", Dataset::kRandom,
     RunGenAlgorithm::kTwoWayReplacementSelection, 2, IoBackend::kUring,
     false},
    {"topk_random", Dataset::kRandom,
     RunGenAlgorithm::kTwoWayReplacementSelection, 0, IoBackend::kPosix,
     true},
};

constexpr size_t kFanIn = 10;
// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 5;
// host.calib_s of an uncontended 4-core x86-64 VM. The gated times are
// scaled to a host whose calibration floor is this (see Run()).
constexpr double kReferenceCalibS = 0.020;
// Fewest timed sorts per run, however short --seconds is.
constexpr size_t kMinSorts = 3;
// Standalone input drains per traced run; io.input_drain_s is the fastest.
constexpr int kDrains = 3;
// Traced sorts per traced run; the per-layer metrics are the fastest's.
constexpr int kTracedSorts = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  uint64_t records = 4000000;
  size_t memory = 65536;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--work-dir") {
      args->work_dir = value;
      continue;
    }
    if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args->seconds > 0;
      if (!have_seconds) return false;
      continue;
    }
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (*end != '\0' || *value == '\0' || *value == '-') return false;
    if (flag == "--seed") {
      args->seed = n;
      have_seed = true;
    } else if (flag == "--trace" && n <= 1) {
      args->trace = n == 1;
      have_trace = true;
    } else if (flag == "--records" && n > 0) {
      args->records = n;
    } else if (flag == "--memory" && n >= 8) {
      args->memory = static_cast<size_t>(n);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !args->workload.empty() && !args->work_dir.empty();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::atomic<uint64_t> g_calib_sink{0};

void CalibrationLoop() {
  std::vector<uint64_t> keys(1 << 18);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }
  std::sort(keys.begin(), keys.end());
  g_calib_sink.fetch_add(keys[keys.size() / 2], std::memory_order_relaxed);
}

// A fixed CPU-and-memory loop (fill and sort 2 MiB of keys) on as many
// threads as the workload's sort runs, timed until the last one finishes
// (as the slowest worker sets a parallel sort's time). Timed after every
// sort so a host contention episode can be told from a regression.
double CalibrateHost(size_t threads) {
  Stopwatch watch;
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < threads; ++i) helpers.emplace_back(CalibrationLoop);
  CalibrationLoop();
  for (std::thread& helper : helpers) helper.join();
  return watch.ElapsedSeconds();
}

uint64_t KernelCallTotal(simd::Kernel kernel) {
  uint64_t total = 0;
  for (int level = 0; level < simd::kNumDispatchLevels; ++level) {
    total += simd::KernelCalls(kernel, static_cast<simd::DispatchLevel>(level));
  }
  return total;
}

// Absolute io_uring counters since process start: a fresh registry has
// seen nothing, so the delta-publish leaves it holding the totals.
std::vector<uint64_t> UringCounters(const std::vector<std::string>& names) {
  MetricsRegistry registry;
  PublishIoUringCounters(&registry);
  std::vector<uint64_t> values;
  for (const std::string& name : names) {
    values.push_back(registry.Counter(name)->value());
  }
  return values;
}

// What every sort of this input must produce, computed while streaming the
// generator once, outside any timed window.
struct Expected {
  KeyChecksum checksum;
  std::vector<Key> smallest;  // top-K workloads: the K smallest, ascending
};

Expected ComputeExpected(Dataset dataset, const WorkloadOptions& options,
                         uint64_t limit) {
  Expected expected;
  std::unique_ptr<RecordSource> source = MakeWorkload(dataset, options);
  std::priority_queue<Key> largest_kept;
  Key key = 0;
  while (source->Next(&key)) {
    expected.checksum.Add(key);
    if (limit == 0) continue;
    if (largest_kept.size() < limit) {
      largest_kept.push(key);
    } else if (key < largest_kept.top()) {
      largest_kept.pop();
      largest_kept.push(key);
    }
  }
  expected.smallest.resize(largest_kept.size());
  for (size_t i = expected.smallest.size(); i > 0; --i) {
    expected.smallest[i - 1] = largest_kept.top();
    largest_kept.pop();
  }
  return expected;
}

struct SortRun {
  ExternalSortResult result;
  double wall_s = 0;
  double cpu_s = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  Bench(const Workload& workload, const Args& args, Env* sort_env)
      : workload_(workload),
        args_(args),
        files_(Env::Default()),
        sort_env_(sort_env),
        input_path_(args.work_dir + "/input.dat"),
        output_path_(args.work_dir + "/output.dat"),
        executor_(ExecutorOptions{workload.threads}) {
    options_.algorithm = workload.algorithm;
    options_.memory_records = args.memory;
    options_.fan_in = kFanIn;
    options_.temp_dir = args.work_dir + "/tmp";
    if (workload.topk) options_.limit = args.memory / 8;
    if (workload.threads > 0) {
      options_.parallel.worker_threads = workload.threads;
      options_.parallel.final_merge_threads = workload.threads;
      options_.parallel.executor = &executor_;
    }
    generator_.num_records = args.records;
    generator_.seed = args.seed;
  }

  int Run() {
    expected_ = ComputeExpected(workload_.dataset, generator_, options_.limit);

    const size_t calib_threads = std::max<size_t>(1, workload_.threads);
    std::vector<double> setup_s, calib_s;
    for (int i = 0; i < kSetups; ++i) {
      Stopwatch watch;
      Status s = WriteWorkloadToFile(files_, workload_.dataset, generator_,
                                     input_path_);
      if (!s.ok()) {
        std::fprintf(stderr, "input generation failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      SortRun warmup;
      s = SortOnce(sort_env_, options_, &warmup);
      setup_s.push_back(watch.ElapsedSeconds());
      Verified(s);
      calib_s.push_back(CalibrateHost(calib_threads));
    }
    // Read after a fixed amount of work: random_2wrs_par2's peak RSS rises
    // by ~7 MB with every sort, so a reading at the end of the timed window
    // would depend on how many sorts it fitted.
    const double peak_rss_mb = PeakRssMb();

    std::vector<double> sort_s, io_bytes;
    Stopwatch window;
    for (size_t attempts = 0;
         attempts < kMinSorts || window.ElapsedSeconds() < args_.seconds;
         ++attempts) {
      SortRun run;
      if (Verified(SortOnce(sort_env_, options_, &run))) {
        sort_s.push_back(run.wall_s);
        io_bytes.push_back(static_cast<double>(run.result.bytes_read +
                                               run.result.bytes_written));
      }
      calib_s.push_back(CalibrateHost(calib_threads));
    }
    std::sort(sort_s.begin(), sort_s.end());
    // Floors, not medians: host contention episodes only ever slow a sort,
    // and they last long enough to cover half a run, so a run's median
    // flips between the floor and the episode level. Episodes lasting
    // minutes shift whole runs, floors included; the calibration loop's
    // floor over the same run shifts with them, and the gated times are
    // scaled by it to the reference host.
    const double sort_floor = sort_s.empty() ? 0 : sort_s.front();
    const double calib_floor =
        *std::min_element(calib_s.begin(), calib_s.end());
    const double to_reference = kReferenceCalibS / calib_floor;
    const double n = static_cast<double>(args_.records);
    const double mrec_per_s = Ratio(n, sort_floor) * 1e-6;

    std::vector<Metric> end_to_end = {
        {"mrec_per_ref_s", Ratio(mrec_per_s, to_reference), "Mrec/s"},
        {"io_bytes_per_record", Median(io_bytes) / n, "B/rec"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", Median(setup_s) * to_reference, "s"},
    };
    std::vector<Metric> per_layer;
    if (args_.trace) per_layer = Traced(sort_floor);
    per_layer.insert(per_layer.begin(), {"host.calib_s", calib_floor, "s"});

    std::printf("workload %s seed %llu records %llu memory_records %zu "
                "simd.dispatch_level %s\n",
                workload_.name, static_cast<unsigned long long>(args_.seed),
                static_cast<unsigned long long>(args_.records), args_.memory,
                simd::DispatchLevelName(simd::ActiveDispatchLevel()));
    std::printf("timed_sorts %zu sort_s min %.6f median %.6f max %.6f\n",
                sort_s.size(), sort_floor, Median(sort_s),
                sort_s.empty() ? 0 : sort_s.back());
    Print(per_layer.front());
    Print({"mrec_per_s", mrec_per_s, "Mrec/s"});
    Print({"setup_raw_s", Median(setup_s), "s"});
    for (const Metric& m : end_to_end) Print(m);
    Print({"failed_frac",
           Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
           "1"});
    for (size_t i = 1; i < per_layer.size(); ++i) Print(per_layer[i]);
    PrintJson(args_.trace ? per_layer : end_to_end);

    TWRS_IGNORE_STATUS(files_->RemoveFile(input_path_));  // best-effort
    return 0;
  }

 private:
  // Sorts the input once through the public API. The times span the Sort
  // call only; the output is left for Verified().
  Status SortOnce(Env* env, const ExternalSortOptions& options, SortRun* run) {
    ++attempted_;
    FileRecordSource source(sort_env_, input_path_);
    ExternalSorter sorter(env, options);
    const double cpu_before = CpuSeconds();
    Stopwatch watch;
    Status s = sorter.Sort(&source, output_path_, &run->result);
    run->wall_s = watch.ElapsedSeconds();
    run->cpu_s = CpuSeconds() - cpu_before;
    return s.ok() ? source.status() : s;
  }

  // Verifies the output of a sort that returned `s`, then removes it. A
  // non-OK status or a wrong output is reported and counted as failed.
  bool Verified(Status s) {
    if (s.ok()) s = Verify();
    if (files_->FileExists(output_path_)) {
      TWRS_IGNORE_STATUS(files_->RemoveFile(output_path_));  // best-effort
    }
    return Check(s);
  }

  Status Verify() {
    if (options_.limit > 0) {
      std::vector<Key> got;
      TWRS_RETURN_IF_ERROR(ReadAllRecords(files_, output_path_, &got));
      return got == expected_.smallest
                 ? Status::OK()
                 : Status::Corruption("top-K output differs from the K "
                                      "smallest input keys");
    }
    uint64_t count = 0;
    KeyChecksum checksum;
    TWRS_RETURN_IF_ERROR(
        VerifySortedFile(files_, output_path_, &count, &checksum));
    if (count != args_.records || !(checksum == expected_.checksum)) {
      return Status::Corruption("output is not a permutation of the input: " +
                                std::to_string(count) + " records");
    }
    return Status::OK();
  }

  // Counts a failed sort (non-OK status or failed verification) loudly.
  bool Check(const Status& s) {
    if (s.ok()) return true;
    ++failed_;
    std::fprintf(stderr, "sort failed: %s\n", s.ToString().c_str());
    return false;
  }

  double DrainInput() {
    FileRecordSource source(sort_env_, input_path_);
    Stopwatch watch;
    Key key = 0;
    uint64_t n = 0;
    while (source.Next(&key)) ++n;
    const double seconds = watch.ElapsedSeconds();
    if (!Check(source.status())) return 0;
    if (n != args_.records) {
      Check(Status::Corruption("input drain read " + std::to_string(n) +
                               " records"));
    }
    return seconds;
  }

  // The separate traced run: kTracedSorts sorts with the timed sorts'
  // options and Env, TimingEnv around the Env and counters read before and
  // after each. Reports the fastest, as the timed metric reports the floor.
  std::vector<Metric> Traced(double untraced_floor) {
    std::vector<double> drains;
    for (int i = 0; i < kDrains; ++i) drains.push_back(DrainInput());
    const double drain_s = *std::min_element(drains.begin(), drains.end());
    std::vector<Metric> fastest;
    double fastest_wall = 0;
    for (int i = 0; i < kTracedSorts; ++i) {
      double wall = 0;
      std::vector<Metric> m = TracedSort(drain_s, &wall);
      if (fastest.empty() || wall < fastest_wall) {
        fastest = std::move(m);
        fastest_wall = wall;
      }
    }
    fastest.push_back(
        {"trace.overhead_frac", Ratio(fastest_wall, untraced_floor) - 1, "1"});
    return fastest;
  }

  std::vector<Metric> TracedSort(double drain_s, double* wall_s) {
    TimingEnv timing(sort_env_);
    ExternalSortOptions options = options_;
    options.on_merge_begin = [&timing](size_t) { timing.BeginMerge(); };

    const std::vector<std::string> uring_names = {
        "io.uring.submitted", "io.uring.short_ios", "io.uring.rings_created"};
    const simd::Kernel kernels[] = {
        simd::Kernel::kSortKeys, simd::Kernel::kPartition,
        simd::Kernel::kEncode, simd::Kernel::kDecode, simd::Kernel::kMinIndex};
    std::vector<uint64_t> kernel_before;
    for (simd::Kernel k : kernels) kernel_before.push_back(KernelCallTotal(k));
    const std::vector<uint64_t> uring_before = UringCounters(uring_names);

    SortRun run;
    const Status s = SortOnce(&timing, options, &run);
    const std::vector<uint64_t> uring_after = UringCounters(uring_names);
    std::vector<uint64_t> kernel_calls;
    for (size_t i = 0; i < kernel_before.size(); ++i) {
      kernel_calls.push_back(KernelCallTotal(kernels[i]) - kernel_before[i]);
    }
    Verified(s);
    const ExternalSortResult& r = run.result;
    const double n = static_cast<double>(args_.records);
    using T = TimingEnv;
    const double io_rungen = timing.Seconds(T::kRunGenPhase, T::kRead) +
                             timing.Seconds(T::kRunGenPhase, T::kWrite);
    const double merge_read = timing.Seconds(T::kMergePhase, T::kRead);
    const double merge_write = timing.Seconds(T::kMergePhase, T::kWrite);
    const double merge_sync = timing.Seconds(T::kMergePhase, T::kSync);
    const double sync = timing.Seconds(T::kRunGenPhase, T::kSync) + merge_sync;
    const double env_total = io_rungen + merge_read + merge_write + sync;
    const RunGenStats& gen = r.run_gen;
    const double records_in = static_cast<double>(gen.total_records);
    const double select_s = workload_.topk ? r.total_seconds : 0;

    std::vector<Metric> m = {
        {"core.rungen_s", r.run_gen_seconds, "s"},
        {"core.self_s", r.run_gen_seconds - drain_s - io_rungen, "s"},
        {"core.runs", static_cast<double>(gen.num_runs()), "count"},
        {"core.run_len_x_mem", gen.AverageRunLengthRelative(args_.memory),
         "x"},
        {"core.diverted_frac",
         Ratio(static_cast<double>(gen.diverted_next_run), records_in), "1"},
        {"core.victim_frac",
         Ratio(static_cast<double>(gen.victim_records), records_in), "1"},
        {"io.rungen_s", io_rungen, "s"},
        {"io.merge_read_s", merge_read, "s"},
        {"io.merge_write_s", merge_write, "s"},
        {"io.sync_s", sync, "s"},
        {"io.read_calls", static_cast<double>(timing.read_calls()), "count"},
        {"io.write_calls", static_cast<double>(timing.write_calls()), "count"},
        {"io.files_opened", static_cast<double>(timing.files_opened()),
         "count"},
        {"io.bytes_read_per_rec", static_cast<double>(r.bytes_read) / n,
         "B/rec"},
        {"io.bytes_written_per_rec", static_cast<double>(r.bytes_written) / n,
         "B/rec"},
        {"io.input_drain_s", drain_s, "s"},
    };
    for (size_t i = 0; i < uring_names.size(); ++i) {
      m.push_back({uring_names[i],
                   static_cast<double>(uring_after[i] - uring_before[i]),
                   "count"});
    }
    const std::vector<Metric> rest = {
        {"merge.s", r.merge_seconds, "s"},
        {"merge.self_s",
         r.merge_seconds - merge_read - merge_write - merge_sync, "s"},
        {"merge.steps", static_cast<double>(r.merge.merge_steps), "count"},
        {"merge.records_written_per_rec",
         static_cast<double>(r.merge.records_written) / n, "1"},
        {"merge.intermediate_runs",
         static_cast<double>(r.merge.intermediate_runs), "count"},
        {"exec.cpu_util", Ratio(run.cpu_s, run.wall_s), "1"},
        {"select.s", select_s, "s"},
        {"select.self_s", workload_.topk ? select_s - drain_s - env_total : 0,
         "s"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (size_t i = 0; i < kernel_before.size(); ++i) {
      m.push_back({std::string("simd.") + simd::KernelName(kernels[i]) +
                       "_calls",
                   static_cast<double>(kernel_calls[i]), "count"});
    }
    m.push_back({"trace.wall_s", run.wall_s, "s"});
    m.push_back({"trace.unattributed_s",
                 run.wall_s - r.run_gen_seconds - r.merge_seconds, "s"});
    *wall_s = run.wall_s;
    return m;
  }


  static void Print(const Metric& m) {
    std::printf("%-30s %.17g %s\n", m.name.c_str(), m.value, m.unit);
  }

  void PrintJson(const std::vector<Metric>& metrics) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
  }

  const Workload& workload_;
  const Args& args_;
  Env* const files_;     // input generation, verification, clean-up
  Env* const sort_env_;  // the workload's backend; reads the input too
  const std::string input_path_;
  const std::string output_path_;
  Executor executor_;
  ExternalSortOptions options_;
  WorkloadOptions generator_;
  Expected expected_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_sort --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--records N] [--memory M]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  // An unavailable io_uring fails the workload instead of silently
  // measuring posix under its name.
  IoBackend resolved = IoBackend::kDefault;
  Status s = ResolveIoBackend(workload->backend, &resolved);
  if (!s.ok() || resolved != workload->backend) {
    std::fprintf(stderr, "%s: backend %s unavailable: %s\n", workload->name,
                 IoBackendName(workload->backend), s.ToString().c_str());
    return 1;
  }
  s = Env::Default()->CreateDirIfMissing(args.work_dir);
  if (!s.ok()) {
    std::fprintf(stderr, "work dir: %s\n", s.ToString().c_str());
    return 1;
  }
  Bench bench(*workload, args, Env::Default(resolved));
  return bench.Run();
}

}  // namespace
}  // namespace perfbench
}  // namespace twrs

int main(int argc, char** argv) { return twrs::perfbench::Main(argc, argv); }
