#ifndef TWRS_BENCH_BENCH_COMMON_H_
#define TWRS_BENCH_BENCH_COMMON_H_

#include <stdlib.h>
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/build_info.h"

#include "core/replacement_selection.h"
#include "core/run_sink.h"
#include "core/two_way_replacement_selection.h"
#include "io/posix_env.h"
#include "io/sim_disk_env.h"
#include "io/uring_env.h"
#include "merge/external_sorter.h"
#include "merge/kway_merge.h"
#include "stats/anova.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/generators.h"

namespace twrs {
namespace bench {

/// Workload scale multiplier, settable via TWRS_BENCH_SCALE (default 1).
/// The defaults keep every benchmark binary under roughly a minute on a
/// laptop; raise the scale to approach the paper's 100 MB–1 GB inputs.
inline double Scale() {
  const char* env = getenv("TWRS_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = atof(env);
  return v > 0 ? v : 1.0;
}

inline uint64_t Scaled(uint64_t n) {
  return static_cast<uint64_t>(static_cast<double>(n) * Scale());
}

/// One result row of the machine-readable --json report: an ordered set of
/// key/value fields serialized as a JSON object.
class JsonEntry {
 public:
  JsonEntry& Str(const std::string& key, const std::string& value) {
    return Field(key, "\"" + Escaped(value) + "\"");
  }

  JsonEntry& Num(const std::string& key, double value) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.9g", value);
    return Field(key, buf);
  }

  JsonEntry& Int(const std::string& key, uint64_t value) {
    return Field(key, std::to_string(value));
  }

  /// The entry rendered as a JSON object.
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  JsonEntry& Field(const std::string& key, const std::string& json_value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + Escaped(key) + "\": " + json_value;
    return *this;
  }

  std::string body_;
};

/// Collects JsonEntry rows and writes them as one JSON document, so
/// benchmark runs leave a machine-readable perf trajectory next to the
/// human-readable tables (e.g. `bench_fig6_6 --json BENCH_fig6_6.json`).
/// Thread-safe; a process-wide instance is reached through Global().
class JsonReporter {
 public:
  static JsonReporter& Global() {
    static JsonReporter reporter;
    return reporter;
  }

  /// Enables reporting; without a path Add/Flush are no-ops.
  void SetPath(std::string path) {
    std::lock_guard<std::mutex> lock(mu_);
    path_ = std::move(path);
  }

  /// Name recorded at the top of the report (the benchmark binary's name).
  void SetName(std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    name_ = std::move(name);
  }

  /// Comparison profile recorded in the report header. bench_diff.py
  /// refuses to compare reports whose profiles differ, so runs with
  /// non-default knobs (scale, pinned thread counts, ...) should set a
  /// distinct profile. Defaults to the bench name.
  void SetProfile(std::string profile) {
    std::lock_guard<std::mutex> lock(mu_);
    profile_ = std::move(profile);
  }

  void Add(const JsonEntry& entry) {
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty()) return;
    entries_.push_back(entry.Render());
  }

  /// Writes `{"bench": <name>, "scale": <s>, "results": [...]}` to the
  /// configured path. No-op when --json was not given.
  void Flush();

 private:
  std::mutex mu_;
  std::string path_;
  std::string name_ = "bench";
  std::string profile_;  ///< empty = use name_
  std::vector<std::string> entries_;
};

/// Parses the flags shared by every standalone benchmark driver
/// (`--json <path>`, `--profile <name>`) and seeds the global reporter
/// with the binary's name.
inline void ParseBenchArgs(int argc, char** argv) {
  if (argc > 0) {
    std::string name = argv[0];
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    JsonReporter::Global().SetName(name);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      JsonReporter::Global().SetPath(argv[++i]);
    } else if (std::string(argv[i]) == "--profile" && i + 1 < argc) {
      JsonReporter::Global().SetProfile(argv[++i]);
    }
  }
}

inline void JsonReporter::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (path_.empty()) return;
  std::ofstream out(path_);
  if (!out) {
    fprintf(stderr, "WARNING: cannot write JSON report to %s\n",
            path_.c_str());
    return;
  }
  // Build/run metadata, so a comparator can refuse to diff reports that
  // were produced by different schemas, profiles or workload scales.
  char timestamp[32] = "unknown";
  {
    const time_t now = time(nullptr);
    struct tm utc;
    if (gmtime_r(&now, &utc) != nullptr) {
      strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    }
  }
  out << "{\n  \"bench\": \"" << name_ << "\",\n  \"schema_version\": "
      << TWRS_BENCH_SCHEMA_VERSION << ",\n  \"git_sha\": \""
      << TWRS_BUILD_GIT_SHA << "\",\n  \"profile\": \""
      << (profile_.empty() ? name_ : profile_) << "\",\n  \"timestamp\": \""
      << timestamp << "\",\n  \"scale\": " << Scale() << ",\n  \"results\": [\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    out << "    " << entries_[i] << (i + 1 < entries_.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  printf("JSON report: %s (%zu entries)\n", path_.c_str(), entries_.size());
}

/// Aborts the benchmark on unexpected errors (benchmarks have no caller to
/// propagate Status to).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    abort();
  }
}

/// Creates a unique scratch directory under /tmp.
inline std::string ScratchDir() {
  std::string templ = "/tmp/twrs_bench_XXXXXX";
  char* dir = mkdtemp(templ.data());
  if (dir == nullptr) {
    fprintf(stderr, "FATAL mkdtemp failed\n");
    abort();
  }
  return std::string(dir);
}

/// Counts the runs RS generates for a dataset (no file I/O).
inline RunGenStats CountRs(size_t memory, Dataset dataset,
                           WorkloadOptions workload) {
  auto source = MakeWorkload(dataset, workload);
  ReplacementSelectionOptions options;
  options.memory_records = memory;
  ReplacementSelection rs(options);
  CountingRunSink sink;
  RunGenStats stats;
  CheckOk(rs.Generate(source.get(), &sink, &stats), "RS generate");
  return stats;
}

/// Counts the runs 2WRS generates for a dataset (no file I/O).
inline RunGenStats Count2wrs(const TwoWayOptions& options, Dataset dataset,
                             WorkloadOptions workload) {
  auto source = MakeWorkload(dataset, workload);
  TwoWayReplacementSelection twrs(options);
  CountingRunSink sink;
  RunGenStats stats;
  CheckOk(twrs.Generate(source.get(), &sink, &stats), "2WRS generate");
  return stats;
}

/// One timed end-to-end sort, mirroring the Chapter 6 measurements: the
/// input is materialized to a file first, the sort reads it back through a
/// simulated-disk Env, and both real and simulated times are reported for
/// the run generation phase and the total.
struct TimedSort {
  uint64_t num_runs = 0;
  double run_gen_seconds = 0.0;
  double total_seconds = 0.0;
  double sim_run_gen_seconds = 0.0;
  double sim_total_seconds = 0.0;
  uint64_t merge_steps = 0;

  /// Engine I/O volume (ExternalSortResult): reads of the input file are
  /// not included.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

struct TimedSortSpec {
  RunGenAlgorithm algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;
  Dataset dataset = Dataset::kRandom;
  uint64_t records = 0;
  size_t memory = 0;
  size_t fan_in = 10;
  uint64_t sections = 50;
  uint64_t seed = 1;
  std::string scratch_dir;

  /// Pipelined execution knobs (all off = serial reference path).
  ParallelOptions parallel;

  /// Simulated disk parameters. With `disk.realtime` the sort pays the
  /// simulated I/O time in real sleeps, so wall-clock numbers expose how
  /// much of it the pipelined path hides.
  DiskModelConfig disk;

  /// Optional row label in the JSON report.
  std::string label;
};

inline TimedSort RunTimedSort(const TimedSortSpec& spec) {
  PosixEnv posix;
  SimDiskEnv env(&posix, spec.disk);

  WorkloadOptions workload;
  workload.num_records = spec.records;
  workload.sections = spec.sections;
  workload.seed = spec.seed;
  const std::string input_path = spec.scratch_dir + "/input";
  CheckOk(WriteWorkloadToFile(&posix, spec.dataset, workload, input_path),
          "write workload");

  ExternalSortOptions options;
  options.algorithm = spec.algorithm;
  options.memory_records = spec.memory;
  options.twrs = TwoWayOptions::Recommended(spec.memory, spec.seed);
  options.fan_in = spec.fan_in;
  options.temp_dir = spec.scratch_dir + "/tmp";
  options.parallel = spec.parallel;
  ExternalSorter sorter(&env, options);

  FileRecordSource source(&env, input_path);
  env.model().Reset();
  ExternalSortResult result;
  CheckOk(sorter.Sort(&source, spec.scratch_dir + "/out", &result), "sort");

  TimedSort timed;
  timed.num_runs = result.run_gen.num_runs();
  timed.run_gen_seconds = result.run_gen_seconds;
  timed.total_seconds = result.total_seconds;
  timed.sim_total_seconds = env.model().SimulatedSeconds();
  // Simulated run-generation time: replay only the run generation phase
  // (accounting only — no real-time sleeps on the replay).
  {
    DiskModelConfig replay_disk = spec.disk;
    replay_disk.realtime = false;
    SimDiskEnv gen_env(&posix, replay_disk);
    FileRecordSource gen_source(&gen_env, input_path);
    FileRunSink sink(&gen_env, spec.scratch_dir + "/tmp", "gen_only");
    CheckOk(gen_env.CreateDirIfMissing(spec.scratch_dir + "/tmp"),
            "mkdir tmp");
    std::unique_ptr<RunGenerator> generator =
        MakeRunGenerator(spec.algorithm, spec.memory, options.twrs);
    CheckOk(generator->Generate(&gen_source, &sink, nullptr), "gen replay");
    timed.sim_run_gen_seconds = gen_env.model().SimulatedSeconds();
    for (const RunInfo& run : sink.runs()) {
      CheckOk(RemoveRunFiles(&posix, run), "cleanup");
    }
  }
  timed.merge_steps = result.merge.merge_steps;
  timed.bytes_read = result.bytes_read;
  timed.bytes_written = result.bytes_written;
  CheckOk(posix.RemoveFile(input_path), "cleanup input");
  CheckOk(posix.RemoveFile(spec.scratch_dir + "/out"), "cleanup out");

  JsonEntry entry;
  if (!spec.label.empty()) entry.Str("label", spec.label);
  // io_backend is an identity field for bench_diff: simulated-disk rows
  // always run the default (posix-backed) Env.
  entry.Str("io_backend", IoBackendName(IoBackend::kDefault))
      .Str("algorithm", RunGenAlgorithmName(spec.algorithm))
      .Str("dataset", DatasetName(spec.dataset))
      .Int("records", spec.records)
      .Int("memory_records", spec.memory)
      .Int("fan_in", spec.fan_in)
      .Int("sections", spec.sections)
      .Int("seed", spec.seed)
      .Int("worker_threads", spec.parallel.worker_threads)
      .Int("final_merge_threads", spec.parallel.final_merge_threads)
      .Int("num_runs", timed.num_runs)
      .Int("merge_steps", timed.merge_steps)
      .Num("run_gen_seconds", timed.run_gen_seconds)
      .Num("total_seconds", timed.total_seconds)
      .Num("sim_run_gen_seconds", timed.sim_run_gen_seconds)
      .Num("sim_total_seconds", timed.sim_total_seconds)
      .Int("bytes_read", result.bytes_read)
      .Int("bytes_written", result.bytes_written)
      .Num("records_per_second",
           timed.total_seconds > 0
               ? static_cast<double>(spec.records) / timed.total_seconds
               : 0.0);
  JsonReporter::Global().Add(entry);
  return timed;
}

/// One timed end-to-end sort on the REAL filesystem through an explicit
/// I/O backend — the posix-vs-uring sweep unit. No simulated disk: the
/// point is what the kernel ring actually buys over synchronous posix
/// I/O on genuine file I/O. Verifies the output and returns its
/// count/checksum through the out-params so the caller can abort on any
/// cross-backend divergence.
inline TimedSort RunBackendTimedSort(const TimedSortSpec& spec,
                                     IoBackend backend, uint64_t* count,
                                     KeyChecksum* checksum) {
  PosixEnv posix;
  WorkloadOptions workload;
  workload.num_records = spec.records;
  workload.sections = spec.sections;
  workload.seed = spec.seed;
  const std::string input_path = spec.scratch_dir + "/backend_input";
  CheckOk(WriteWorkloadToFile(&posix, spec.dataset, workload, input_path),
          "write workload");

  ExternalSortOptions options;
  options.algorithm = spec.algorithm;
  options.memory_records = spec.memory;
  options.twrs = TwoWayOptions::Recommended(spec.memory, spec.seed);
  options.fan_in = spec.fan_in;
  options.temp_dir = spec.scratch_dir + "/tmp";
  options.parallel = spec.parallel;
  options.io_backend = backend;
  ExternalSorter sorter(&posix, options);

  const std::string out = spec.scratch_dir + "/backend_out";
  FileRecordSource source(&posix, input_path);
  ExternalSortResult result;
  CheckOk(sorter.Sort(&source, out, &result), "backend sort");

  TimedSort timed;
  timed.num_runs = result.run_gen.num_runs();
  timed.run_gen_seconds = result.run_gen_seconds;
  timed.total_seconds = result.total_seconds;
  timed.merge_steps = result.merge.merge_steps;
  timed.bytes_read = result.bytes_read;
  timed.bytes_written = result.bytes_written;

  CheckOk(VerifySortedFile(&posix, out, count, checksum), "verify output");
  CheckOk(posix.RemoveFile(input_path), "cleanup input");
  CheckOk(posix.RemoveFile(out), "cleanup out");

  JsonEntry entry;
  if (!spec.label.empty()) entry.Str("label", spec.label);
  entry.Str("io_backend", IoBackendName(backend))
      .Str("algorithm", RunGenAlgorithmName(spec.algorithm))
      .Str("dataset", DatasetName(spec.dataset))
      .Int("records", spec.records)
      .Int("memory_records", spec.memory)
      .Int("fan_in", spec.fan_in)
      .Int("sections", spec.sections)
      .Int("seed", spec.seed)
      .Int("worker_threads", spec.parallel.worker_threads)
      .Int("final_merge_threads", spec.parallel.final_merge_threads)
      .Int("num_runs", timed.num_runs)
      .Int("merge_steps", timed.merge_steps)
      .Num("run_gen_seconds", timed.run_gen_seconds)
      .Num("total_seconds", timed.total_seconds)
      .Int("bytes_read", result.bytes_read)
      .Int("bytes_written", result.bytes_written)
      .Num("records_per_second",
           timed.total_seconds > 0
               ? static_cast<double>(spec.records) / timed.total_seconds
               : 0.0);
  JsonReporter::Global().Add(entry);
  return timed;
}

/// The four ANOVA factors of §5.2 with the paper's levels.
inline constexpr int kBufferSetupLevels = 3;  // input only / both / victim only
inline constexpr double kBufferSizeLevels[] = {0.0002, 0.002, 0.02, 0.2};
inline constexpr int kNumBufferSizeLevels = 4;

inline TwoWayOptions ConfigForLevels(size_t memory, int setup, int size,
                                     int input_h, int output_h,
                                     uint64_t seed) {
  TwoWayOptions options;
  options.memory_records = memory;
  options.buffer_fraction = kBufferSizeLevels[size];
  options.use_input_buffer = setup == 0 || setup == 1;
  options.use_victim_buffer = setup == 1 || setup == 2;
  options.input_heuristic = static_cast<InputHeuristic>(input_h);
  options.output_heuristic = static_cast<OutputHeuristic>(output_h);
  options.seed = seed;
  return options;
}

/// Runs the §5.2 crossed factorial experiment for one dataset and returns
/// ANOVA observations (factors: buffer setup, buffer size, input heuristic,
/// output heuristic; response: number of runs).
inline std::vector<Observation> RunFactorial(Dataset dataset, size_t memory,
                                             uint64_t records, int seeds) {
  std::vector<Observation> observations;
  for (int setup = 0; setup < kBufferSetupLevels; ++setup) {
    for (int size = 0; size < kNumBufferSizeLevels; ++size) {
      for (int ih = 0; ih < kNumInputHeuristics; ++ih) {
        for (int oh = 0; oh < kNumOutputHeuristics; ++oh) {
          for (int seed = 1; seed <= seeds; ++seed) {
            WorkloadOptions workload;
            workload.num_records = records;
            workload.seed = static_cast<uint64_t>(seed);
            const TwoWayOptions options =
                ConfigForLevels(memory, setup, size, ih, oh, seed);
            const RunGenStats stats = Count2wrs(options, dataset, workload);
            Observation obs;
            obs.levels = {setup, size, ih, oh};
            obs.y = static_cast<double>(stats.num_runs());
            observations.push_back(std::move(obs));
          }
        }
      }
    }
  }
  return observations;
}

/// Prints an AnovaResult in the layout of the paper's Tables 5.2–5.11.
inline void PrintAnovaTable(const AnovaResult& result,
                            const std::vector<AnovaTerm>& terms,
                            const std::vector<std::string>& factor_names) {
  TablePrinter table({"Factor", "SS", "D.F.", "MSS", "F", "Sig.", "Power"});
  for (size_t t = 0; t < result.rows.size(); ++t) {
    const AnovaRow& row = result.rows[t];
    table.AddRow({terms[t].Name(factor_names), TablePrinter::Num(row.ss, 3),
                  std::to_string(row.df), TablePrinter::Num(row.ms, 3),
                  TablePrinter::Num(row.f, 3),
                  TablePrinter::Num(row.significance, 4),
                  TablePrinter::Num(row.power, 3)});
  }
  table.AddRow({"Residual", TablePrinter::Num(result.ss_error, 3),
                std::to_string(result.df_error),
                TablePrinter::Num(result.ms_error, 3), "", "", ""});
  table.Print(std::cout);
  printf("R^2 = %.3f   sigma = %.3f   CV = %.2f%%   grand mean = %.2f\n",
         result.r_squared, result.sigma, result.cv_percent,
         result.grand_mean);
}

}  // namespace bench
}  // namespace twrs

#endif  // TWRS_BENCH_BENCH_COMMON_H_
