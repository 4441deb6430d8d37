// Database ORDER BY ... LIMIT scenario (the paper's §7 motivation, plus
// the selection layer on top).
//
// A table stores two anticorrelated columns A and B — think `price` and
// `discount`, or the paper's example of rows physically ordered by A while
// a query wants ORDER BY B. Scanning the table in A-order feeds the sort
// operator a reverse-sorted stream of B values. Most such queries carry a
// LIMIT, and the engine answers it one of two ways, picked by K against
// the sort's memory:
//
//   dual-heap selection    K fits the memory: one bounded pass, a
//                          K-capacity key heap keeps the current top K,
//                          no runs, no merge
//   run-pruning merge      K past the memory: normal run generation, then
//                          a merge that clamps every run to its first K
//                          records and prunes runs the sampled bounds
//                          prove irrelevant
//
// This example runs LIMIT k and LIMIT 4 x memory next to the full sort +
// truncate (the naive plan both must beat). Each LIMIT plan's output is
// byte-identical to the full sort's first K; the point of this example is
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
  uint64_t limit = 0;
  twrs::ExternalSortResult sort;
  std::string output;
  bool ok = false;
};

constexpr uint64_t kMemoryRecords = 32 * 1024;  // the operator's quantum

// Runs `SELECT b FROM t ORDER BY b LIMIT k`. limit == 0 is the full-sort
// baseline (truncated to K afterwards by the comparison below, the way a
// naive plan would).
PlanCost RunQuery(twrs::Env* env, const char* name, uint64_t rows,
                  uint64_t limit, const std::string& dir) {
  twrs::ExternalSortOptions options;
  options.memory_records = kMemoryRecords;
  options.temp_dir = dir + "/tmp_" + name;
  options.limit = limit;
  twrs::ExternalSorter sorter(env, options);

  AnticorrelatedColumnScan scan(rows, /*seed=*/7);
  PlanCost result;
  result.name = name;
  result.limit = limit;
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

  const uint64_t big_k = 4 * kMemoryRecords;
  printf("SELECT b FROM t ORDER BY b LIMIT %" PRIu64 " (and LIMIT %" PRIu64
         ")  -- rows stored in a-order, b ~ -a\n",
         k, big_k);
  printf("table: %" PRIu64 " rows, sort memory: 32Ki records\n\n", rows);

  const PlanCost full = RunQuery(&env, "full-sort", rows, /*limit=*/0, dir);
  const PlanCost small = RunQuery(&env, "limit-k", rows, k, dir);
  const PlanCost big = RunQuery(&env, "limit-big", rows, big_k, dir);
  if (!full.ok || !small.ok || !big.ok) return 1;

  // A LIMIT plan must return exactly the first K records of the full
  // sort — compare bytes, not just counts.
  std::vector<twrs::Key> reference, got;
  if (!twrs::ReadAllRecords(&env, full.output, &reference).ok()) return 1;
  for (const PlanCost* plan : {&small, &big}) {
    if (!twrs::ReadAllRecords(&env, plan->output, &got).ok()) return 1;
    const size_t want = std::min<size_t>(reference.size(), plan->limit);
    if (got != std::vector<twrs::Key>(reference.begin(),
                                      reference.begin() + want)) {
      fprintf(stderr, "%s: output differs from full sort truncated to K\n",
              plan->name);
      return 1;
    }
  }

  printf("%-28s %18s %18s %18s\n", "", "full sort",
         twrs::TopKStrategyName(small.sort.topk_strategy),
         twrs::TopKStrategyName(big.sort.topk_strategy));
  printf("%-28s %18s %18" PRIu64 " %18" PRIu64 "\n", "LIMIT", "-", k, big_k);
  printf("%-28s %18" PRIu64 " %18" PRIu64 " %18" PRIu64 "\n",
         "records written", full.sort.output_records,
         small.sort.output_records, big.sort.output_records);
  printf("%-28s %18" PRIu64 " %18" PRIu64 " %18" PRIu64 "\n", "runs generated",
         full.sort.run_gen.num_runs(), small.sort.run_gen.num_runs(),
         big.sort.run_gen.num_runs());
  printf("%-28s %18" PRIu64 " %18" PRIu64 " %18" PRIu64 "\n",
         "MiB read", full.sort.bytes_read >> 20, small.sort.bytes_read >> 20,
         big.sort.bytes_read >> 20);
  printf("%-28s %18" PRIu64 " %18" PRIu64 " %18" PRIu64 "\n",
         "MiB written", full.sort.bytes_written >> 20,
         small.sort.bytes_written >> 20, big.sort.bytes_written >> 20);
  printf("%-28s %18s %18" PRIu64 " %18" PRIu64 "\n", "runs pruned", "-",
         small.sort.merge.runs_pruned, big.sort.merge.runs_pruned);
  printf("%-28s %18.3f %18.3f %18.3f\n", "total seconds",
         full.sort.total_seconds, small.sort.total_seconds,
         big.sort.total_seconds);

  printf("\nBoth LIMIT plans verified byte-identical to the full sort's "
         "first K keys.\n"
         "A dual-heap plan does no run I/O at all; a run-pruning plan reads\n"
         "back only the slice of each run that could reach its top K.\n");
  return 0;
}
