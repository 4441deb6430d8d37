#include "exec/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "io/mem_env.h"
#include "merge/external_sorter.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

TEST(ExecutorTest, LazyPoolCreation) {
  Executor executor;
  EXPECT_FALSE(executor.started());
  EXPECT_EQ(executor.inflight_tasks(), 0u);
  ThreadPool* pool = executor.pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_TRUE(executor.started());
  // The pool is created once and then shared.
  EXPECT_EQ(executor.pool(), pool);
}

TEST(ExecutorTest, CapacityConfiguresDefaultPool) {
  ExecutorOptions options;
  options.capacity = 3;
  Executor executor(options);
  EXPECT_EQ(executor.capacity(), 3u);
  EXPECT_EQ(executor.pool()->num_threads(), 3u);
}

TEST(ExecutorTest, ZeroCapacityResolvesToHardware) {
  Executor executor;
  EXPECT_GE(executor.capacity(), 2u);
  EXPECT_EQ(executor.pool()->num_threads(), executor.capacity());
}

TEST(ExecutorTest, SetCapacityOnlyBeforeFirstPool) {
  Executor executor;
  EXPECT_TRUE(executor.SetCapacity(2));
  EXPECT_EQ(executor.capacity(), 2u);
  EXPECT_EQ(executor.pool()->num_threads(), 2u);
  // Too late: pools cannot be resized once running.
  EXPECT_FALSE(executor.SetCapacity(8));
  EXPECT_EQ(executor.capacity(), 2u);
}

TEST(ExecutorTest, PoolExecutesSubmittedTasks) {
  ExecutorOptions options;
  options.capacity = 2;
  Executor executor(options);
  std::atomic<int> counter{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(executor.pool()->Submit([&counter] {
      counter.fetch_add(1);
      return Status::OK();
    }));
  }
  for (TaskHandle& handle : handles) ASSERT_TWRS_OK(handle.Wait());
  EXPECT_EQ(counter.load(), 16);
}

TEST(ExecutorTest, SharedReturnsOneInstance) {
  EXPECT_EQ(&Executor::Shared(), &Executor::Shared());
}

// The heart of the refactor: many concurrent sorts borrow one executor
// instead of spawning a pool each. All must succeed and verify, and the
// executor's one pool keeps its configured size.
TEST(ExecutorTest, ConcurrentSortsShareOneExecutor) {
  MemEnv env;
  ExecutorOptions exec_options;
  exec_options.capacity = 3;
  Executor executor(exec_options);

  constexpr int kSorts = 6;
  std::vector<std::vector<Key>> inputs(kSorts);
  std::vector<Status> statuses(kSorts);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSorts; ++i) {
    WorkloadOptions wl;
    wl.num_records = 3000;
    wl.seed = 500 + i;
    inputs[i] = testing::Drain(MakeWorkload(Dataset::kRandom, wl).get());
    threads.emplace_back([&env, &executor, &inputs, &statuses, i] {
      ExternalSortOptions options;
      options.memory_records = 64;
      options.twrs = TwoWayOptions::Recommended(64);
      options.fan_in = 3;
      options.temp_dir = "tmp";
      options.block_bytes = 512;
      options.parallel.worker_threads = 2;  // enables the pool features
      options.parallel.executor = &executor;
      ExternalSorter sorter(&env, options);
      VectorSource source(inputs[i]);
      statuses[i] = sorter.Sort(&source, "out" + std::to_string(i), nullptr);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(executor.pool()->num_threads(), 3u);
  for (int i = 0; i < kSorts; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    uint64_t count = 0;
    KeyChecksum checksum;
    ASSERT_TWRS_OK(VerifySortedFile(&env, "out" + std::to_string(i), &count,
                                    &checksum));
    EXPECT_EQ(count, inputs[i].size());
    EXPECT_TRUE(checksum == testing::ChecksumOf(inputs[i]));
  }
}

// A sort with worker_threads > 0 and no explicit executor borrows
// Executor::Shared() and still produces a verified output.
TEST(ExecutorTest, SortBorrowsSharedExecutorByDefault) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 11;
  auto input = testing::Drain(MakeWorkload(Dataset::kRandom, wl).get());

  ExternalSortOptions options;
  options.memory_records = 64;
  options.twrs = TwoWayOptions::Recommended(64);
  options.temp_dir = "tmp";
  options.parallel.worker_threads = 2;
  ExternalSorter sorter(&env, options);
  VectorSource source(input);
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));
  EXPECT_TRUE(Executor::Shared().started());

  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == testing::ChecksumOf(input));
}

}  // namespace
}  // namespace twrs
