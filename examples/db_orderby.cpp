// Database ORDER BY ... LIMIT scenario (the paper's §7 motivation, plus
// the selection layer on top).
//
// A table stores two anticorrelated columns A and B — think `price` and
// `discount`, or the paper's example of rows physically ordered by A while
// a query wants ORDER BY B. Scanning the table in A-order feeds the sort
// operator a reverse-sorted stream of B values. Most such queries carry a
// LIMIT, and the engine answers it three ways:
//
//   full sort + truncate   sort everything, keep the first K (the naive
//                          plan every strategy must beat)
//   dual-heap selection    one bounded pass: a K-capacity DoubleHeap keeps
//                          the current top K, no runs, no merge
//   run-pruning merge      normal run generation, then a merge that clamps
//                          every run to its first K records and prunes
//                          runs the sampled bounds prove irrelevant
//
// All three produce byte-identical output; the point of this example is
// their radically different costs.
//
//   ./db_orderby [num_rows] [k]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/record_source.h"
#include "io/posix_env.h"
#include "io/record_io.h"
#include "merge/external_sorter.h"
#include "select/topk.h"
#include "util/random.h"

namespace {

// Streams column B of a table whose rows arrive physically ordered by
// column A, with B anticorrelated to A (B ~ C - A plus per-row jitter).
class AnticorrelatedColumnScan : public twrs::RecordSource {
 public:
  AnticorrelatedColumnScan(uint64_t rows, uint64_t seed)
      : rows_(rows), rng_(seed) {}

 protected:
  twrs::Status ReadSome(twrs::Key* out, size_t cap, size_t* n) override {
    *n = std::min<uint64_t>(cap, rows_ - row_);
    for (size_t i = 0; i < *n; ++i, ++row_) {
      const twrs::Key a = static_cast<twrs::Key>(row_) * 1000;  // scan order
      const twrs::Key jitter = static_cast<twrs::Key>(rng_.Uniform(900));
      out[i] = static_cast<twrs::Key>(rows_) * 1000 - a + jitter;  // column B
    }
    return twrs::Status::OK();
  }

 private:
  uint64_t rows_;
  uint64_t row_ = 0;
  twrs::Random rng_;
};

struct PlanCost {
  const char* name = "";
  twrs::ExternalSortResult sort;
  std::string output;
  bool ok = false;
};

// Runs `SELECT b FROM t ORDER BY b LIMIT k` with a pinned strategy.
// limit == 0 is the full-sort baseline (truncated to K afterwards by the
// comparison below, the way a naive plan would).
PlanCost RunQuery(twrs::Env* env, const char* name, uint64_t rows,
                  uint64_t limit, twrs::TopKStrategy strategy,
                  const std::string& dir) {
  twrs::ExternalSortOptions options;
  options.memory_records = 32 * 1024;  // the operator's memory quantum
  options.twrs = twrs::TwoWayOptions::Recommended(options.memory_records);
  options.temp_dir = dir + "/tmp_" + name;
  options.limit = limit;
  options.topk_strategy = strategy;
  twrs::ExternalSorter sorter(env, options);

  AnticorrelatedColumnScan scan(rows, /*seed=*/7);
  PlanCost result;
  result.name = name;
  result.output = dir + "/orderby_" + name;
  twrs::Status status = sorter.Sort(&scan, result.output, &result.sort);
  if (!status.ok()) {
    fprintf(stderr, "%s: sort: %s\n", name, status.ToString().c_str());
    return result;
  }
  status = twrs::VerifySortedFile(env, result.output, nullptr, nullptr);
  if (!status.ok()) {
    fprintf(stderr, "%s: verify: %s\n", name, status.ToString().c_str());
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t rows = argc > 1 ? strtoull(argv[1], nullptr, 10) : 2000000;
  const uint64_t k =
      argc > 2 ? strtoull(argv[2], nullptr, 10) : std::max<uint64_t>(
                                                      1, rows / 1000);
  twrs::PosixEnv env;
  const char* dir = "/tmp/twrs_orderby";
  if (!env.CreateDirIfMissing(dir).ok()) return 1;

  printf("SELECT b FROM t ORDER BY b LIMIT %" PRIu64
         "  -- rows stored in a-order, b ~ -a\n",
         k);
  printf("table: %" PRIu64 " rows, sort memory: 32Ki records\n\n", rows);

  const PlanCost full =
      RunQuery(&env, "full-sort", rows, /*limit=*/0,
               twrs::TopKStrategy::kAuto, dir);
  const PlanCost dual = RunQuery(&env, "dual-heap", rows, k,
                                 twrs::TopKStrategy::kDualHeap, dir);
  const PlanCost pruned = RunQuery(&env, "run-pruning", rows, k,
                                   twrs::TopKStrategy::kRunPruningMerge, dir);
  if (!full.ok || !dual.ok || !pruned.ok) return 1;

  // The LIMIT plans must return exactly the first K records of the full
  // sort — compare bytes, not just counts.
  std::vector<twrs::Key> reference, got;
  if (!twrs::ReadAllRecords(&env, full.output, &reference).ok()) return 1;
  reference.resize(std::min<size_t>(reference.size(), k));
  for (const PlanCost* plan : {&dual, &pruned}) {
    if (!twrs::ReadAllRecords(&env, plan->output, &got).ok()) return 1;
    if (got != reference) {
      fprintf(stderr, "%s: output differs from full sort truncated to K\n",
              plan->name);
      return 1;
    }
  }

  printf("%-28s %14s %14s %14s\n", "", "full sort", "dual-heap",
         "run-pruning");
  printf("%-28s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
         "records written", full.sort.output_records,
         dual.sort.output_records, pruned.sort.output_records);
  printf("%-28s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n", "runs generated",
         full.sort.run_gen.num_runs(), dual.sort.run_gen.num_runs(),
         pruned.sort.run_gen.num_runs());
  printf("%-28s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
         "MiB read", full.sort.bytes_read >> 20, dual.sort.bytes_read >> 20,
         pruned.sort.bytes_read >> 20);
  printf("%-28s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
         "MiB written", full.sort.bytes_written >> 20,
         dual.sort.bytes_written >> 20, pruned.sort.bytes_written >> 20);
  printf("%-28s %14s %14" PRIu64 " %14" PRIu64 "\n", "runs pruned", "-",
         dual.sort.merge.runs_pruned, pruned.sort.merge.runs_pruned);
  printf("%-28s %14.3f %14.3f %14.3f\n", "total seconds",
         full.sort.total_seconds, dual.sort.total_seconds,
         pruned.sort.total_seconds);

  printf("\nAll three plans verified byte-identical on the first %" PRIu64
         " keys.\n"
         "The dual-heap plan did no run I/O at all; the run-pruning plan\n"
         "read back only the slice of each run that could reach the top "
         "%" PRIu64 ".\n",
         k, k);
  return 0;
}
