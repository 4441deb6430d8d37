// twrs_sortd: batch driver for the SortService — the "daemon view" of the
// library. Generates a fleet of workload files, submits them all to one
// SortService and reports the admission/governance behavior: every job's
// lifecycle, the (possibly shrunk) memory lease it ran under, the run
// generator count the planner picked, and the service/governor counters.
//
//   twrs_sortd [options]
//
// Options:
//   --jobs N          jobs to submit (default 8)
//   --records N       records per job input (default 100000)
//   --concurrency N   max concurrently running jobs (default 2)
//   --queue-depth N   admission queue depth (default 64)
//   --memory N        nominal memory ask per job, records (default 64Ki)
//   --budget N        governor capacity in records
//                     (default 2x --memory: two full jobs' worth)
//   --min-lease N     smallest lease the governor grants (default 4096)
//   --rungen-threads N|auto
//                     per-job run generators sharing the lease (default
//                     auto: the most that add no merge pass)
//   --limit K         submit top-K selection jobs: each output holds only
//                     the K smallest keys; a small K runs the dual-heap
//                     selection with a selection-aware (smaller) lease ask
//   --io-backend posix|uring|auto
//                     file I/O backend for every job (default posix).
//                     `uring` fails with one line when the kernel or
//                     build lacks io_uring; `auto` degrades to posix
//   --temp-dir PATH   scratch root (default /tmp/twrs_sortd)
//   --seed N          workload seed base (default 1)
//   --cancel N        cancel the last N submitted jobs mid-flight
//   --verify          verify each completed output is sorted
//   --status-interval MS
//                     live mode: repaint a per-job progress table every
//                     MS milliseconds while jobs run (ANSI repaint on a
//                     terminal, plain appended frames otherwise)
//   --metrics-json PATH
//                     dump the service's full metrics registry (latency
//                     histograms and counters) as JSON to PATH at exit

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "examples/cli_util.h"
#include "exec/executor.h"
#include "io/env.h"
#include "service/sort_service.h"
#include "util/table_printer.h"
#include "workload/generators.h"

namespace {

int Usage() {
  fprintf(stderr,
          "usage: twrs_sortd [options]\n"
          "run `head -45 examples/twrs_sortd.cpp` for the option list\n");
  return 2;
}

using twrs::examples::ParseCount;

bool Terminal(twrs::JobState state) {
  return state == twrs::JobState::kDone || state == twrs::JobState::kFailed ||
         state == twrs::JobState::kCancelled;
}

double Mib(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Live status mode: polls every handle until all jobs are terminal,
/// repainting a per-job progress table each tick. Every frame — the
/// cursor-up erase of the previous table, the permanent one-line records
/// of newly finished jobs, and the repainted table — is assembled into
/// one string and written by this single writer with one fwrite+fflush,
/// so concurrent job output can never interleave inside a repaint. On a
/// non-terminal stdout the ANSI erase is skipped and frames just append.
void WatchJobs(const std::vector<twrs::JobHandle>& handles,
               uint64_t interval_ms) {
  const bool tty = isatty(fileno(stdout)) != 0;
  std::vector<bool> reported(handles.size(), false);
  size_t last_lines = 0;
  for (;;) {
    bool all_done = true;
    std::string finished_lines;
    twrs::TablePrinter table({"job", "phase", "state", "ingested", "merged",
                              "MiB read", "MiB written", "done %"});
    for (size_t j = 0; j < handles.size(); ++j) {
      const twrs::JobState state = handles[j].state();
      const twrs::JobProgress p = handles[j].Progress();
      if (Terminal(state)) {
        if (!reported[j]) {
          reported[j] = true;
          const twrs::SortJobStats stats = handles[j].stats();
          finished_lines += "job " + std::to_string(j) + ": " +
                            twrs::JobStateName(state) + " in " +
                            twrs::TablePrinter::Num(stats.total_seconds, 3) +
                            " s (" + std::to_string(p.records_ingested) +
                            " records)\n";
        }
      } else {
        all_done = false;
      }
      // Ingest and merge each touch every record once, so the two
      // counters together advance 0 -> 2*total over the job's life.
      const double pct =
          p.total_records > 0
              ? 100.0 *
                    static_cast<double>(p.records_ingested + p.records_merged) /
                    (2.0 * static_cast<double>(p.total_records))
              : 0.0;
      table.AddRow({std::to_string(j), twrs::SortProgressPhaseName(p.phase),
                    twrs::JobStateName(state),
                    std::to_string(p.records_ingested),
                    std::to_string(p.records_merged),
                    twrs::TablePrinter::Num(Mib(p.bytes_read), 1),
                    twrs::TablePrinter::Num(Mib(p.bytes_written), 1),
                    twrs::TablePrinter::Num(pct, 1)});
    }
    std::ostringstream body;
    table.Print(body);
    const std::string rendered = body.str();
    const size_t lines =
        static_cast<size_t>(std::count(rendered.begin(), rendered.end(), '\n'));

    std::string frame;
    if (tty && last_lines > 0) {
      frame += "\033[" + std::to_string(last_lines) + "A\033[J";
    }
    frame += finished_lines;
    frame += rendered;
    fwrite(frame.data(), 1, frame.size(), stdout);
    fflush(stdout);
    last_lines = lines;

    if (all_done) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t jobs = 8;
  uint64_t records = 100000;
  uint64_t concurrency = 2;
  uint64_t queue_depth = 64;
  uint64_t memory = 64 * 1024;
  uint64_t budget = 0;  // 0 = 2x memory
  uint64_t min_lease = 4096;
  uint64_t rungen_threads = twrs::kAutoRunGenerationThreads;
  uint64_t seed = 1;
  uint64_t limit = 0;
  uint64_t cancel_last = 0;
  bool verify = false;
  uint64_t status_interval_ms = 0;
  std::string metrics_json;
  std::string temp_dir = "/tmp/twrs_sortd";
  twrs::IoBackend io_backend = twrs::IoBackend::kDefault;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--jobs") {
      if (!ParseCount(next(), &jobs) || jobs == 0 || jobs > 4096) {
        return Usage();
      }
    } else if (arg == "--records") {
      if (!ParseCount(next(), &records)) return Usage();
    } else if (arg == "--concurrency") {
      if (!ParseCount(next(), &concurrency) || concurrency == 0) {
        return Usage();
      }
    } else if (arg == "--queue-depth") {
      if (!ParseCount(next(), &queue_depth)) return Usage();
    } else if (arg == "--memory") {
      if (!ParseCount(next(), &memory) || memory == 0) return Usage();
    } else if (arg == "--budget") {
      if (!ParseCount(next(), &budget)) return Usage();
    } else if (arg == "--min-lease") {
      if (!ParseCount(next(), &min_lease)) return Usage();
    } else if (arg == "--rungen-threads") {
      const char* v = next();
      if (v != nullptr && std::string(v) == "auto") {
        rungen_threads = twrs::kAutoRunGenerationThreads;
      } else if (!ParseCount(v, &rungen_threads) || rungen_threads == 0 ||
                 rungen_threads > 1024) {
        return Usage();
      }
    } else if (arg == "--io-backend") {
      const char* v = next();
      if (v == nullptr || !twrs::ParseIoBackend(v, &io_backend)) {
        return Usage();
      }
    } else if (arg == "--temp-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      temp_dir = v;
    } else if (arg == "--seed") {
      if (!ParseCount(next(), &seed)) return Usage();
    } else if (arg == "--limit") {
      if (!ParseCount(next(), &limit)) return Usage();
    } else if (arg == "--cancel") {
      if (!ParseCount(next(), &cancel_last)) return Usage();
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--status-interval") {
      if (!ParseCount(next(), &status_interval_ms) ||
          status_interval_ms == 0) {
        return Usage();
      }
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return Usage();
      metrics_json = v;
    } else {
      fprintf(stderr, "unknown option %s\n", arg.c_str());
      return Usage();
    }
  }

  // Resolve the backend once for the whole fleet; an explicit `uring` on
  // an unsupported kernel/build fails here, before any input is written.
  twrs::IoBackend resolved_backend = twrs::IoBackend::kPosix;
  {
    twrs::Status bs = twrs::ResolveIoBackend(io_backend, &resolved_backend);
    if (!bs.ok()) {
      fprintf(stderr, "twrs_sortd: %s\n", bs.ToString().c_str());
      return 2;
    }
    if (resolved_backend == twrs::IoBackend::kDefault) {
      resolved_backend = twrs::IoBackend::kPosix;
    }
  }
  printf("io backend: %s\n", twrs::IoBackendName(resolved_backend));
  twrs::Env* env_ptr = twrs::Env::Default(resolved_backend);
  twrs::Env& env = *env_ptr;
  twrs::Status s = twrs::PreflightTempDir(&env, temp_dir);
  if (!s.ok()) {
    fprintf(stderr, "twrs_sortd: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::string work_dir =
      temp_dir + "/" + twrs::UniqueScratchDirName("sortd");
  s = env.CreateDirIfMissing(work_dir);
  if (!s.ok()) {
    fprintf(stderr, "twrs_sortd: %s\n", s.ToString().c_str());
    return 1;
  }

  // A fleet of inputs across the workload datasets, so the planner and
  // governor see heterogeneous jobs.
  const twrs::Dataset rotation[] = {
      twrs::Dataset::kRandom, twrs::Dataset::kMixed,
      twrs::Dataset::kReverseSorted, twrs::Dataset::kMixedImbalanced};
  std::vector<std::string> inputs(jobs), outputs(jobs);
  for (uint64_t j = 0; j < jobs; ++j) {
    inputs[j] = work_dir + "/input_" + std::to_string(j);
    outputs[j] = work_dir + "/output_" + std::to_string(j);
    twrs::WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = seed + j;
    s = twrs::WriteWorkloadToFile(&env, rotation[j % 4], workload, inputs[j]);
    if (!s.ok()) {
      fprintf(stderr, "twrs_sortd: generate input %llu: %s\n",
              static_cast<unsigned long long>(j), s.ToString().c_str());
      return 1;
    }
  }

  twrs::SortServiceOptions service_options;
  service_options.max_concurrent_jobs = concurrency;
  service_options.max_queue_depth = queue_depth;
  service_options.governor.capacity_records =
      budget > 0 ? budget : 2 * memory;
  service_options.governor.min_lease_records = min_lease;

  printf("twrs_sortd: %llu jobs x %llu records, concurrency %llu, "
         "budget %zu records (nominal ask %llu), run generators %s\n",
         static_cast<unsigned long long>(jobs),
         static_cast<unsigned long long>(records),
         static_cast<unsigned long long>(concurrency),
         service_options.governor.capacity_records,
         static_cast<unsigned long long>(memory),
         rungen_threads == twrs::kAutoRunGenerationThreads
             ? "auto"
             : std::to_string(rungen_threads).c_str());

  std::vector<twrs::JobHandle> handles(jobs);
  {
    twrs::SortService service(&env, service_options);
    for (uint64_t j = 0; j < jobs; ++j) {
      twrs::SortJobSpec spec;
      spec.input_path = inputs[j];
      spec.output_path = outputs[j];
      spec.sort.memory_records = memory;
      spec.sort.twrs = twrs::TwoWayOptions::Recommended(memory, seed + j);
      spec.sort.temp_dir = work_dir;
      spec.sort.limit = limit;
      spec.run_generation_threads = rungen_threads;
      s = service.Submit(spec, &handles[j]);
      if (!s.ok()) {
        fprintf(stderr, "twrs_sortd: submit job %llu: %s\n",
                static_cast<unsigned long long>(j), s.ToString().c_str());
        return 1;
      }
    }
    for (uint64_t j = jobs - std::min(cancel_last, jobs); j < jobs; ++j) {
      handles[j].Cancel();
    }
    if (status_interval_ms > 0) {
      // Live mode: poll and repaint until every job is terminal. The
      // handles' terminal states make the Waits below immediate.
      WatchJobs(handles, status_interval_ms);
    }
    for (uint64_t j = 0; j < jobs; ++j) {
      // Per-job outcomes are reported from the stats table below, where a
      // failed or cancelled job shows up in its `state` column.
      TWRS_IGNORE_STATUS(handles[j].Wait());
    }

    const twrs::SortServiceStats stats = service.Stats();
    const twrs::MemoryGovernorStats governor = service.GovernorStats();
    twrs::TablePrinter table({"job", "state", "rungen", "plan", "lease",
                              "queue s", "total s", "records"});
    for (uint64_t j = 0; j < jobs; ++j) {
      const twrs::SortJobStats job = handles[j].stats();
      // lease column: granted[->downsized]/nominal; the arrow appears when
      // the job returned part of its budget at merge begin.
      std::string lease = std::to_string(job.granted_memory_records);
      if (job.downsized_memory_records > 0) {
        lease += "->" + std::to_string(job.downsized_memory_records);
      }
      lease += "/" + std::to_string(job.nominal_memory_records);
      table.AddRow({std::to_string(j), twrs::JobStateName(job.state),
                    std::to_string(job.planned_run_generation_threads),
                    twrs::ParallelPlanLimitName(job.plan_limit), lease,
                    twrs::TablePrinter::Num(job.queue_seconds, 3),
                    twrs::TablePrinter::Num(job.total_seconds, 3),
                    std::to_string(job.result.output_records)});
    }
    table.Print(std::cout);
    printf("service: %llu submitted, %llu completed, %llu failed, "
           "%llu cancelled, %llu rejected; peak queue %zu, peak running "
           "%zu, shrunk admissions %llu\n",
           static_cast<unsigned long long>(stats.submitted),
           static_cast<unsigned long long>(stats.completed),
           static_cast<unsigned long long>(stats.failed),
           static_cast<unsigned long long>(stats.cancelled),
           static_cast<unsigned long long>(stats.rejected),
           stats.peak_queued, stats.peak_running,
           static_cast<unsigned long long>(stats.shrunk_admissions));
    printf("governor: %zu/%zu records reserved at shutdown, %llu leases "
           "(%llu shrunk, %llu downsized mid-flight)\n",
           governor.reserved_records, governor.capacity_records,
           static_cast<unsigned long long>(governor.total_leases),
           static_cast<unsigned long long>(governor.shrunk_leases),
           static_cast<unsigned long long>(governor.downsized_leases));
    if (!metrics_json.empty() && service.metrics() != nullptr) {
      std::ofstream out(metrics_json);
      if (out) {
        out << service.metrics()->ToJson() << "\n";
        printf("metrics registry dumped to %s\n", metrics_json.c_str());
      } else {
        fprintf(stderr, "twrs_sortd: cannot write metrics to %s\n",
                metrics_json.c_str());
      }
    }
  }

  int rc = 0;
  for (uint64_t j = 0; j < jobs; ++j) {
    const twrs::SortJobStats job = handles[j].stats();
    if (job.state == twrs::JobState::kFailed) {
      fprintf(stderr, "twrs_sortd: job %llu failed: %s\n",
              static_cast<unsigned long long>(j),
              job.status.ToString().c_str());
      rc = 1;
      continue;
    }
    if (job.state != twrs::JobState::kDone) continue;
    if (verify) {
      const uint64_t expected =
          limit > 0 ? std::min<uint64_t>(limit, records) : records;
      uint64_t count = 0;
      s = twrs::VerifySortedFile(&env, outputs[j], &count, nullptr);
      if (!s.ok() || count != expected) {
        fprintf(stderr, "twrs_sortd: verify job %llu: %s (count %llu)\n",
                static_cast<unsigned long long>(j), s.ToString().c_str(),
                static_cast<unsigned long long>(count));
        rc = 1;
      }
    }
  }
  if (verify && rc == 0) {
    printf("verified: every completed output is sorted\n");
  }
  twrs::RemoveTreeBestEffort(&env, work_dir);
  return rc;
}
