// Measures the SortService (src/service) end to end: 16 jobs submitted to
// one service at concurrency limits 1, 4 and 16, under a governor budget
// of two jobs' nominal memory — so the higher concurrency levels only
// proceed because the governor shrinks leases. Reported per level:
// batch wall time, throughput, and the p50/p99 of per-job latency
// (submission to completion, queueing included), plus the admission and
// I/O counters. The interesting comparison is throughput vs latency as
// concurrency grows with the memory budget held fixed.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/bench_common.h"
#include "exec/executor.h"
#include "service/sort_service.h"

namespace twrs {
namespace bench {
namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Appends `prefix`_{count,mean,p50,p99}_seconds fields for one histogram
/// of the service's registry snapshot; absent histograms add nothing.
void AddHistogramFields(JsonEntry* entry, const MetricsSnapshot& metrics,
                        const std::string& name, const std::string& prefix) {
  const HistogramSummary* h = metrics.FindHistogram(name);
  if (h == nullptr) return;
  entry->Int(prefix + "_count", h->count)
      .Num(prefix + "_mean_seconds", h->mean_seconds)
      .Num(prefix + "_p50_seconds", h->p50_seconds)
      .Num(prefix + "_p99_seconds", h->p99_seconds);
}

void Run(bool enable_metrics) {
  const std::string dir = ScratchDir();
  const uint64_t kJobs = 16;
  const uint64_t records = Scaled(200000);
  const size_t memory = static_cast<size_t>(Scaled(20000));

  PosixEnv env;
  std::vector<std::string> inputs(kJobs);
  const Dataset rotation[] = {Dataset::kRandom, Dataset::kMixed,
                              Dataset::kReverseSorted,
                              Dataset::kMixedImbalanced};
  for (uint64_t j = 0; j < kJobs; ++j) {
    inputs[j] = dir + "/input_" + std::to_string(j);
    WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = 1 + j;
    CheckOk(WriteWorkloadToFile(&env, rotation[j % 4], workload, inputs[j]),
            "write workload");
  }

  printf("== SortService throughput/latency (src/service) ==\n");
  printf(
      "%llu jobs x %llu records, nominal memory %zu records/job,\n"
      "governor budget = 2 jobs' nominal (leases shrink under load), "
      "adaptive run generators, executor capacity = %zu\n\n",
      static_cast<unsigned long long>(kJobs),
      static_cast<unsigned long long>(records), memory,
      Executor::Shared().capacity());

  TablePrinter table({"concurrency", "wall s", "jobs/s", "p50 s", "p99 s",
                      "shrunk", "peak queue", "GiB written"});
  for (const size_t concurrency : {size_t{1}, size_t{4}, size_t{16}}) {
    SortServiceOptions options;
    options.max_concurrent_jobs = concurrency;
    options.max_queue_depth = kJobs;
    options.governor.capacity_records = 2 * memory;
    options.governor.min_lease_records = memory / 8;
    options.enable_metrics = enable_metrics;

    std::vector<JobHandle> handles(kJobs);
    Stopwatch wall;
    SortServiceStats stats;
    {
      SortService service(&env, options);
      for (uint64_t j = 0; j < kJobs; ++j) {
        SortJobSpec spec;
        spec.input_path = inputs[j];
        spec.output_path = dir + "/out_" + std::to_string(j);
        spec.sort.memory_records = memory;
        spec.sort.twrs = TwoWayOptions::Recommended(memory, 1 + j);
        spec.sort.temp_dir = dir + "/tmp";
        CheckOk(service.Submit(spec, &handles[j]), "submit");
      }
      for (uint64_t j = 0; j < kJobs; ++j) {
        CheckOk(handles[j].Wait(), "job");
      }
      stats = service.Stats();
    }
    const double wall_seconds = wall.ElapsedSeconds();

    std::vector<double> latencies;
    uint64_t bytes_read = 0, bytes_written = 0;
    for (uint64_t j = 0; j < kJobs; ++j) {
      const SortJobStats job = handles[j].stats();
      latencies.push_back(job.total_seconds);
      bytes_read += job.result.bytes_read;
      bytes_written += job.result.bytes_written;
    }
    // Spot-check one output per level; all levels write the same bytes.
    uint64_t count = 0;
    CheckOk(VerifySortedFile(&env, dir + "/out_0", &count, nullptr),
            "verify");
    if (count != records) {
      fprintf(stderr, "FATAL wrong output count %llu\n",
              static_cast<unsigned long long>(count));
      abort();
    }

    const double p50 = Percentile(latencies, 0.50);
    const double p99 = Percentile(latencies, 0.99);
    const double jobs_per_second =
        wall_seconds > 0 ? static_cast<double>(kJobs) / wall_seconds : 0.0;
    table.AddRow({std::to_string(concurrency),
                  TablePrinter::Num(wall_seconds, 3),
                  TablePrinter::Num(jobs_per_second, 2),
                  TablePrinter::Num(p50, 3), TablePrinter::Num(p99, 3),
                  std::to_string(stats.shrunk_admissions),
                  std::to_string(stats.peak_queued),
                  TablePrinter::Num(static_cast<double>(bytes_written) /
                                        (1024.0 * 1024 * 1024),
                                    3)});

    JsonEntry entry;
    entry.Str("bench_case", "sort_service")
        .Int("concurrency", concurrency)
        .Int("jobs", kJobs)
        .Int("records_per_job", records)
        .Int("nominal_memory_records", memory)
        .Int("governor_capacity_records", options.governor.capacity_records)
        .Num("wall_seconds", wall_seconds)
        .Num("jobs_per_second", jobs_per_second)
        .Num("p50_latency_seconds", p50)
        .Num("p99_latency_seconds", p99)
        .Int("shrunk_admissions", stats.shrunk_admissions)
        .Int("peak_queued", stats.peak_queued)
        .Int("peak_running", stats.peak_running)
        .Int("bytes_read", bytes_read)
        .Int("bytes_written", bytes_written)
        .Int("metrics_enabled", enable_metrics ? 1 : 0);
    AddHistogramFields(&entry, stats.metrics, "sort.run_generation_seconds",
                       "run_generation");
    AddHistogramFields(&entry, stats.metrics, "sort.final_merge_seconds",
                       "final_merge");
    AddHistogramFields(&entry, stats.metrics, "service.queue_seconds",
                       "queue");
    AddHistogramFields(&entry, stats.metrics,
                       "governor.reserve_wait_seconds", "reserve_wait");
    AddHistogramFields(&entry, stats.metrics, "run_sink.flush_seconds",
                       "run_sink_flush");
    AddHistogramFields(&entry, stats.metrics, "merge_sink.flush_seconds",
                       "merge_sink_flush");
    JsonReporter::Global().Add(entry);

    for (uint64_t j = 0; j < kJobs; ++j) {
      CheckOk(env.RemoveFile(dir + "/out_" + std::to_string(j)),
              "cleanup out");
    }
  }
  table.Print(std::cout);

  for (uint64_t j = 0; j < kJobs; ++j) {
    CheckOk(env.RemoveFile(inputs[j]), "cleanup input");
  }
  RemoveTreeBestEffort(&env, dir);
}

}  // namespace
}  // namespace bench
}  // namespace twrs

int main(int argc, char** argv) {
  twrs::bench::ParseBenchArgs(argc, argv);
  bool enable_metrics = true;
  for (int i = 1; i < argc; ++i) {
    // A/B switch for measuring the registry's overhead: the pinned CI
    // profile runs with metrics on, so regressions gate the instrumented
    // path users actually run.
    if (std::string(argv[i]) == "--no-metrics") enable_metrics = false;
  }
  twrs::bench::Run(enable_metrics);
  twrs::bench::JsonReporter::Global().Flush();
  return 0;
}
