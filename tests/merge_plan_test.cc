#include "merge/merge_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "exec/thread_pool.h"

#include "io/mem_env.h"
#include "io/record_io.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

RunInfo MakeRun(Env* env, const std::string& path,
                const std::vector<Key>& keys) {
  EXPECT_TRUE(WriteAllRecords(env, path, keys).ok());
  RunInfo run;
  RunSegment seg;
  seg.path = path;
  seg.count = keys.size();
  run.segments.push_back(std::move(seg));
  run.length = keys.size();
  return run;
}

MergeOptions Options() {
  MergeOptions options;
  options.fan_in = 3;
  options.block_bytes = 256;
  options.temp_dir = "tmp";
  return options;
}

TEST(MergeRunsTest, EmptyInputWritesEmptyOutput) {
  MemEnv env;
  MergeStats stats;
  ASSERT_TWRS_OK(MergeRuns(&env, {}, Options(), "out", &stats));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_TRUE(keys.empty());
  EXPECT_EQ(stats.merge_steps, 0u);
}

TEST(MergeRunsTest, SingleRunIsCopiedToOutput) {
  MemEnv env;
  std::vector<RunInfo> runs = {MakeRun(&env, "r0", {1, 2, 3})};
  MergeStats stats;
  ASSERT_TWRS_OK(MergeRuns(&env, runs, Options(), "out", &stats));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys, std::vector<Key>({1, 2, 3}));
  EXPECT_EQ(stats.merge_steps, 1u);
  EXPECT_FALSE(env.FileExists("r0"));  // inputs consumed
}

TEST(MergeRunsTest, MultiPassMergeIsCorrect) {
  MemEnv env;
  Random rng(3);
  std::vector<RunInfo> runs;
  std::vector<Key> all;
  for (int r = 0; r < 10; ++r) {  // 10 runs, fan-in 3 -> multiple passes
    std::vector<Key> keys(50);
    for (Key& k : keys) k = static_cast<Key>(rng.Uniform(100000));
    std::sort(keys.begin(), keys.end());
    all.insert(all.end(), keys.begin(), keys.end());
    runs.push_back(MakeRun(&env, "r" + std::to_string(r), keys));
  }
  std::sort(all.begin(), all.end());
  MergeStats stats;
  ASSERT_TWRS_OK(MergeRuns(&env, runs, Options(), "out", &stats));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys, all);
  EXPECT_GT(stats.merge_steps, 1u);
  EXPECT_GT(stats.intermediate_runs, 0u);
  // All temp files were cleaned up: only the output remains.
  EXPECT_EQ(env.FileCount(), 1u);
}

TEST(MergeRunsTest, KeepInputsWhenRequested) {
  MemEnv env;
  std::vector<RunInfo> runs = {MakeRun(&env, "r0", {1}),
                               MakeRun(&env, "r1", {2})};
  MergeOptions options = Options();
  options.remove_inputs = false;
  ASSERT_TWRS_OK(MergeRuns(&env, runs, options, "out", nullptr));
  EXPECT_TRUE(env.FileExists("r0"));
  EXPECT_TRUE(env.FileExists("r1"));
}

TEST(MergeRunsTest, RejectsFanInBelowTwo) {
  MemEnv env;
  MergeOptions options = Options();
  options.fan_in = 1;
  EXPECT_TRUE(MergeRuns(&env, {}, options, "out", nullptr)
                  .IsInvalidArgument());
}

TEST(MergeRunsTest, RecordsWrittenCountsMergeVolume) {
  MemEnv env;
  std::vector<RunInfo> runs;
  for (int r = 0; r < 4; ++r) {
    runs.push_back(MakeRun(&env, "r" + std::to_string(r), {r}));
  }
  MergeOptions options = Options();  // fan_in = 3
  MergeStats stats;
  ASSERT_TWRS_OK(MergeRuns(&env, runs, options, "out", &stats));
  // The first merge takes the two smallest runs (2 records), so the
  // final merge is full and writes all 4.
  EXPECT_EQ(stats.records_written, 2u + 4u);
}

TEST(MergeRunsTest, HigherFanInNeedsFewerSteps) {
  for (size_t fan_in : {2u, 4u, 16u}) {
    MemEnv env;
    std::vector<RunInfo> runs;
    for (int r = 0; r < 16; ++r) {
      runs.push_back(MakeRun(&env, "r" + std::to_string(r),
                             {static_cast<Key>(r)}));
    }
    MergeOptions options = Options();
    options.fan_in = fan_in;
    MergeStats stats;
    ASSERT_TWRS_OK(MergeRuns(&env, runs, options, "out", &stats));
    if (fan_in == 2) {
      EXPECT_EQ(stats.merge_steps, 15u);
    }
    if (fan_in == 16) {
      EXPECT_EQ(stats.merge_steps, 1u);
    }
    std::vector<Key> keys;
    ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
    EXPECT_EQ(keys.size(), 16u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  }
}

// ------------------------------------------------------------ PlanMerges

// Records written by the optimal k-ary merge tree, computed the textbook
// way: pad with zero-weight dummy runs until (n - 1) is a multiple of
// (k - 1), then merge the k lightest nodes until one is left. One run is
// still copied once.
uint64_t HuffmanVolume(const std::vector<uint64_t>& lengths, size_t k) {
  if (lengths.empty()) return 0;
  if (lengths.size() == 1) return lengths[0];
  std::priority_queue<uint64_t, std::vector<uint64_t>,
                      std::greater<uint64_t>>
      heap(lengths.begin(), lengths.end());
  while ((heap.size() - 1) % (k - 1) != 0) heap.push(0);
  uint64_t written = 0;
  while (heap.size() > 1) {
    uint64_t sum = 0;
    for (size_t i = 0; i < k; ++i) {
      sum += heap.top();
      heap.pop();
    }
    written += sum;
    heap.push(sum);
  }
  return written;
}

// The schedule PlanMerges replaced: full batches of k runs in FIFO order,
// each output queued at the back, then one final merge of what is left.
struct FifoSchedule {
  uint64_t written = 0;
  size_t merges = 0;
};

FifoSchedule Fifo(const std::vector<uint64_t>& lengths, size_t k) {
  FifoSchedule fifo;
  if (lengths.empty()) return fifo;
  std::deque<uint64_t> queue(lengths.begin(), lengths.end());
  while (queue.size() > k) {
    uint64_t sum = 0;
    for (size_t i = 0; i < k; ++i) {
      sum += queue.front();
      queue.pop_front();
    }
    fifo.written += sum;
    ++fifo.merges;
    queue.push_back(sum);
  }
  for (uint64_t length : queue) fifo.written += length;
  ++fifo.merges;
  return fifo;
}

uint64_t RecordsWritten(const std::vector<MergeStep>& plan) {
  uint64_t written = 0;
  for (const MergeStep& step : plan) written += step.records;
  return written;
}

// Every node feeds exactly one later step, the last step is the root, and
// each step's records and level follow from its inputs.
void ExpectWellFormed(const std::vector<MergeStep>& plan,
                      const std::vector<uint64_t>& lengths) {
  const size_t n = lengths.size();
  std::vector<uint64_t> node_records(lengths);
  std::vector<size_t> node_level(n, 0);
  std::set<size_t> consumed;
  for (size_t s = 0; s < plan.size(); ++s) {
    const MergeStep& step = plan[s];
    uint64_t sum = 0;
    size_t level = 0;
    for (size_t node : step.inputs) {
      ASSERT_LT(node, n + s) << "step " << s << " reads a later node";
      EXPECT_TRUE(consumed.insert(node).second) << "node " << node;
      sum += node_records[node];
      level = std::max(level, node_level[node] + 1);
    }
    EXPECT_EQ(step.records, sum) << "step " << s;
    EXPECT_EQ(step.level, level) << "step " << s;
    node_records.push_back(step.records);
    node_level.push_back(step.level);
  }
  EXPECT_EQ(consumed.size(), n + plan.size() - (n > 0 ? 1 : 0));
}

TEST(PlanMergesTest, MatchesHuffmanAndNeverLosesToFifo) {
  Random rng(22);
  for (size_t fan_in : {size_t{2}, size_t{3}, size_t{4}, size_t{10}}) {
    for (size_t n = 0; n <= 200; ++n) {
      std::vector<uint64_t> lengths(n);
      for (uint64_t& length : lengths) length = rng.Uniform(1000);
      SCOPED_TRACE("fan_in=" + std::to_string(fan_in) +
                   " runs=" + std::to_string(n));
      const std::vector<MergeStep> plan = PlanMerges(lengths, fan_in, 0);
      ExpectWellFormed(plan, lengths);
      EXPECT_EQ(RecordsWritten(plan), HuffmanVolume(lengths, fan_in));
      const FifoSchedule fifo = Fifo(lengths, fan_in);
      EXPECT_LE(RecordsWritten(plan), fifo.written);
      EXPECT_EQ(plan.size(), fifo.merges);
      for (size_t s = 1; s < plan.size(); ++s) {
        EXPECT_EQ(plan[s].inputs.size(), fan_in) << "step " << s;
      }
      if (n > 1) {
        const size_t first =
            (n - 1) % (fan_in - 1) == 0 ? fan_in
                                        : 2 + (n - 2) % (fan_in - 1);
        EXPECT_EQ(plan[0].inputs.size(), first);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(PlanMergesTest, SmallestRunsMergeFirstAndTiesGoByIndex) {
  const std::vector<uint64_t> lengths = {5, 1, 7, 2, 9};
  const std::vector<MergeStep> plan = PlanMerges(lengths, 2, 0);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].inputs, std::vector<size_t>({1, 3}));  // 1 + 2
  EXPECT_EQ(plan[1].inputs, std::vector<size_t>({5, 0}));  // 3 + 5
  EXPECT_EQ(plan[2].inputs, std::vector<size_t>({2, 6}));  // 7 + 8
  EXPECT_EQ(plan[3].inputs, std::vector<size_t>({4, 7}));  // 9 + 15
  EXPECT_EQ(RecordsWritten(plan), 3u + 8u + 15u + 24u);
  EXPECT_EQ(plan[3].level, 4u);
}

TEST(PlanMergesTest, LimitCapsRunAndMergeWeights) {
  // Weights min(length, 3): 3, 1, 3, 2, 3. Equal weights pop by node.
  const std::vector<uint64_t> lengths = {5, 1, 7, 2, 9};
  const std::vector<MergeStep> plan = PlanMerges(lengths, 2, 3);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].inputs, std::vector<size_t>({1, 3}));
  EXPECT_EQ(plan[1].inputs, std::vector<size_t>({0, 2}));
  EXPECT_EQ(plan[2].inputs, std::vector<size_t>({4, 5}));
  EXPECT_EQ(plan[3].inputs, std::vector<size_t>({6, 7}));
  for (const MergeStep& step : plan) EXPECT_EQ(step.records, 3u);
  EXPECT_EQ(RecordsWritten(plan), 12u);
  EXPECT_EQ(plan[2].level, 2u);
  EXPECT_EQ(plan[3].level, 3u);
}

TEST(PlanMergesTest, OneRunIsOneCopyAndNoRunsNoSteps) {
  EXPECT_TRUE(PlanMerges({}, 10, 0).empty());
  const std::vector<MergeStep> one = PlanMerges({42}, 10, 0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].inputs, std::vector<size_t>({0}));
  EXPECT_EQ(RecordsWritten(one), 42u);
}

TEST(MergeRunsTest, StatsFollowThePlanSerialAndPooled) {
  Random rng(9);
  std::vector<std::vector<Key>> contents;
  std::vector<uint64_t> lengths;
  for (int r = 0; r < 23; ++r) {
    std::vector<Key> keys(rng.Uniform(120));
    for (Key& k : keys) k = static_cast<Key>(rng.Uniform(5000));
    std::sort(keys.begin(), keys.end());
    lengths.push_back(keys.size());
    contents.push_back(std::move(keys));
  }
  for (uint64_t limit : {uint64_t{0}, uint64_t{70}}) {
    const std::vector<MergeStep> plan = PlanMerges(lengths, 3, limit);
    MergeStats stats[2];
    std::vector<uint8_t> outputs[2];
    ThreadPool pool(3);
    for (int pooled = 0; pooled < 2; ++pooled) {
      MemEnv env;
      std::vector<RunInfo> runs;
      for (size_t r = 0; r < contents.size(); ++r) {
        runs.push_back(MakeRun(&env, "r" + std::to_string(r), contents[r]));
      }
      MergeOptions options = Options();  // fan_in = 3
      options.limit = limit;
      options.pool = pooled != 0 ? &pool : nullptr;
      ASSERT_TWRS_OK(MergeRuns(&env, runs, options, "out", &stats[pooled]));
      ASSERT_NE(env.FileContents("out"), nullptr);
      outputs[pooled] = *env.FileContents("out");
      EXPECT_EQ(env.FileCount(), 1u);
    }
    for (const MergeStats& s : stats) {
      EXPECT_EQ(s.merge_steps, plan.size());
      EXPECT_EQ(s.intermediate_runs, plan.size() - 1);
      EXPECT_EQ(s.records_written, RecordsWritten(plan));
    }
    EXPECT_EQ(stats[1].runs_pruned, stats[0].runs_pruned);
    EXPECT_EQ(stats[1].records_pruned, stats[0].records_pruned);
    EXPECT_EQ(outputs[1], outputs[0]) << "limit " << limit;
  }
}

}  // namespace
}  // namespace twrs
