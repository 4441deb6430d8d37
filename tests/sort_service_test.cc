#include "service/sort_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "io/mem_env.h"
#include "service/parallel_planner.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::ChecksumOf;
using testing::Drain;

// ---------------------------------------------------------------------------
// Parallel planner

TEST(ParallelPlannerTest, InputFittingInMemoryStaysSerial) {
  ParallelPlanInputs inputs;
  inputs.input_records = 1000;
  inputs.memory_records = 2000;
  inputs.executor_capacity = 32;
  const ParallelPlan plan = PlanParallelism(inputs);
  EXPECT_EQ(plan.run_generation_threads, 1u);
  EXPECT_EQ(plan.limit, ParallelPlanLimit::kInputFitsInMemory);
  EXPECT_EQ(plan.final_merge_threads, 1u);
}

TEST(ParallelPlannerTest, StopsBeforeAnExtraMergePass) {
  ParallelPlanInputs inputs;
  inputs.input_records = 1000000;
  inputs.memory_records = 200000;
  inputs.fan_in = 10;
  inputs.executor_capacity = 16;
  // 2WRS: three runs of ~2x memory at P = 1, plus one for the short first
  // and partial last run: one pass at fan-in 10. Two generators of 100K
  // make 2 x 4 = 8 runs, still one pass; three make 12, a second pass.
  const ParallelPlan plan = PlanParallelism(inputs);
  EXPECT_EQ(plan.run_generation_threads, 2u);
  EXPECT_EQ(plan.limit, ParallelPlanLimit::kMergePasses);
}

TEST(ParallelPlannerTest, LoadSortStoreRunsAreHalfAsLong) {
  ParallelPlanInputs inputs;
  inputs.input_records = 100000;
  inputs.memory_records = 1000;
  inputs.algorithm = RunGenAlgorithm::kLoadSortStore;
  inputs.fan_in = 10;
  inputs.executor_capacity = 16;
  // 100 memory-sized runs already fill two passes; two generators make
  // 201 (one partial run more), which would need three.
  const ParallelPlan plan = PlanParallelism(inputs);
  EXPECT_EQ(plan.run_generation_threads, 1u);
  EXPECT_EQ(plan.limit, ParallelPlanLimit::kMergePasses);
}

TEST(ParallelPlannerTest, ClipsToFreeExecutorWorkers) {
  ParallelPlanInputs inputs;
  inputs.input_records = 22000;  // 12 runs: room for 8 generators
  inputs.memory_records = 1000;
  inputs.executor_capacity = 8;
  inputs.executor_inflight = 6;  // only 2 workers free
  const ParallelPlan plan = PlanParallelism(inputs);
  EXPECT_EQ(plan.run_generation_threads, 2u);
  EXPECT_EQ(plan.limit, ParallelPlanLimit::kExecutorLoad);
  EXPECT_EQ(plan.final_merge_threads, 1u);
}

TEST(ParallelPlannerTest, OverloadedExecutorStillGetsOneGenerator) {
  ParallelPlanInputs inputs;
  inputs.input_records = 1000000;
  inputs.memory_records = 1000;
  inputs.executor_capacity = 4;
  inputs.executor_inflight = 100;
  const ParallelPlan plan = PlanParallelism(inputs);
  EXPECT_EQ(plan.run_generation_threads, 1u);
  EXPECT_EQ(plan.limit, ParallelPlanLimit::kExecutorLoad);
}

TEST(ParallelPlannerTest, EachGeneratorGetsTheSmallestMemoryItsAlgorithmTakes) {
  ParallelPlanInputs inputs;
  inputs.input_records = 100;
  inputs.memory_records = 4;
  inputs.fan_in = 100;  // passes never bind
  inputs.executor_capacity = 4;
  // 2WRS needs 3 records a generator: a 4-record lease keeps one.
  EXPECT_EQ(PlanParallelism(inputs).run_generation_threads, 1u);
  // Replacement selection runs on a single record: four generators.
  inputs.algorithm = RunGenAlgorithm::kReplacementSelection;
  EXPECT_EQ(PlanParallelism(inputs).run_generation_threads, 4u);
}

TEST(ParallelPlannerTest, FinalMergeGetsTheLeftoverWorkers) {
  ParallelPlanInputs inputs;
  inputs.input_records = 1000000;
  inputs.memory_records = 200000;
  inputs.executor_capacity = 16;
  const ParallelPlan plan = PlanParallelism(inputs);
  ASSERT_EQ(plan.run_generation_threads, 2u);
  // 16 free workers over 2 generators: 8 partitions for the final merge.
  EXPECT_EQ(plan.final_merge_threads, 8u);
}

TEST(ParallelPlannerTest, FinalMergeCappedByExpectedRunCount) {
  ParallelPlanInputs inputs;
  inputs.input_records = 6000;
  inputs.memory_records = 1000;
  inputs.executor_capacity = 64;  // workers to spare
  const ParallelPlan plan = PlanParallelism(inputs);
  // Two generators of 500 make 2 x 4 = 8 runs, one pass; three would make
  // 15. The 32 workers each generator leaves are capped at the 8 runs.
  ASSERT_EQ(plan.run_generation_threads, 2u);
  EXPECT_EQ(plan.final_merge_threads, 8u);
}

TEST(ParallelPlannerTest, TopKLeaseAskShrinksToTheSelectionFootprint) {
  // Not a top-K job: the nominal ask stands.
  EXPECT_EQ(PlanTopKLeaseRecords(0, 1 << 16), size_t{1} << 16);
  // Tiny K still asks for the 8192-record floor, not K records.
  EXPECT_EQ(PlanTopKLeaseRecords(100, 1 << 16), 8192u);
  // K between the floor and the nominal ask: ask for exactly K.
  EXPECT_EQ(PlanTopKLeaseRecords(20000, 1 << 16), 20000u);
  // K at or above the nominal ask changes nothing.
  EXPECT_EQ(PlanTopKLeaseRecords(1 << 16, 1 << 16), size_t{1} << 16);
  EXPECT_EQ(PlanTopKLeaseRecords(1 << 20, 1 << 16), size_t{1} << 16);
  // The floor never inflates past the nominal ask.
  EXPECT_EQ(PlanTopKLeaseRecords(10, 100), 100u);
}

// ---------------------------------------------------------------------------
// SortService

std::vector<Key> WriteWorkload(MemEnv* env, const std::string& path,
                               uint64_t records, uint64_t seed) {
  WorkloadOptions wl;
  wl.num_records = records;
  wl.seed = seed;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  EXPECT_TRUE(WriteAllRecords(env, path, input).ok());
  return input;
}

SortJobSpec SpecFor(const std::string& input, const std::string& output,
                    size_t memory) {
  SortJobSpec spec;
  spec.input_path = input;
  spec.output_path = output;
  spec.sort.memory_records = memory;
  spec.sort.twrs = TwoWayOptions::Recommended(memory);
  spec.sort.temp_dir = "tmp";
  spec.sort.block_bytes = 512;
  return spec;
}

TEST(SortServiceTest, SubmitValidatesTheSpec) {
  MemEnv env;
  SortService service(&env, SortServiceOptions());
  JobHandle handle;
  SortJobSpec spec;  // no paths
  EXPECT_TRUE(service.Submit(spec, &handle).IsInvalidArgument());

  spec = SpecFor("absent", "out", 64);
  EXPECT_TRUE(service.Submit(spec, &handle).IsNotFound());

  WriteWorkload(&env, "in", 10, 1);
  spec = SpecFor("in", "out", 0);
  EXPECT_TRUE(service.Submit(spec, &handle).IsInvalidArgument());

  EXPECT_EQ(service.Stats().submitted, 0u);
}

TEST(SortServiceTest, SortsOneJobEndToEnd) {
  MemEnv env;
  auto input = WriteWorkload(&env, "in", 5000, 7);

  SortServiceOptions options;
  options.governor.capacity_records = 1 << 16;
  SortService service(&env, options);
  JobHandle handle;
  ASSERT_TWRS_OK(service.Submit(SpecFor("in", "out", 128), &handle));
  ASSERT_TWRS_OK(handle.Wait());
  EXPECT_EQ(handle.state(), JobState::kDone);

  uint64_t count = 0;
  KeyChecksum sum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &sum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(sum == ChecksumOf(input));

  const SortJobStats stats = handle.stats();
  EXPECT_EQ(stats.granted_memory_records, 128u);
  EXPECT_GE(stats.planned_run_generation_threads, 1u);
  EXPECT_EQ(stats.result.output_records, input.size());
  EXPECT_GT(stats.result.bytes_written, 0u);

  const SortServiceStats service_stats = service.Stats();
  EXPECT_EQ(service_stats.submitted, 1u);
  EXPECT_EQ(service_stats.completed, 1u);
}

TEST(SortServiceTest, AutoPlansParallelRunGenerationForLargeInputs) {
  MemEnv env;
  auto input = WriteWorkload(&env, "in", 50000, 11);

  SortServiceOptions options;
  options.governor.capacity_records = 4096;
  options.governor.min_lease_records = 512;
  SortService service(&env, options);
  JobHandle handle;
  SortJobSpec spec = SpecFor("in", "out", 1024);
  spec.run_generation_threads = kAutoRunGenerationThreads;
  ASSERT_TWRS_OK(service.Submit(spec, &handle));
  ASSERT_TWRS_OK(handle.Wait());

  const SortJobStats stats = handle.stats();
  // 50000 records make ~26 runs of 2x 1024 records: two merge passes at
  // fan-in 10, which up to three generators of 341 still fit. The
  // executor has >= 2 workers and is idle, so the plan keeps at least 2.
  EXPECT_EQ(stats.granted_memory_records, 1024u);
  EXPECT_GE(stats.planned_run_generation_threads, 2u);
  EXPECT_LE(stats.planned_run_generation_threads, 3u);
  EXPECT_EQ(stats.result.run_gen.total_records, input.size());

  uint64_t count = 0;
  KeyChecksum sum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &sum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(sum == ChecksumOf(input));
}

TEST(SortServiceTest, RejectsWhenTheQueueIsFull) {
  MemEnv env;
  // A slow first job (big input, small memory) keeps the single running
  // slot busy while the queue fills.
  WriteWorkload(&env, "slow", 120000, 3);
  WriteWorkload(&env, "in", 100, 4);

  SortServiceOptions options;
  options.max_concurrent_jobs = 1;
  options.max_queue_depth = 2;
  options.governor.capacity_records = 1 << 16;
  SortService service(&env, options);

  JobHandle running;
  ASSERT_TWRS_OK(service.Submit(SpecFor("slow", "out0", 64), &running));

  // Fill the admission queue. The scheduler may have already popped one
  // job into admission, so keep submitting until two sit in the queue.
  std::vector<JobHandle> queued;
  Status rejected;
  for (int i = 1; i < 10; ++i) {
    JobHandle handle;
    Status s = service.Submit(
        SpecFor("in", "out" + std::to_string(i), 64), &handle);
    if (s.ok()) {
      queued.push_back(handle);
    } else {
      rejected = s;
      break;
    }
  }
  EXPECT_TRUE(rejected.IsBusy()) << rejected.ToString();
  EXPECT_GE(service.Stats().rejected, 1u);

  ASSERT_TWRS_OK(running.Wait());
  for (auto& handle : queued) ASSERT_TWRS_OK(handle.Wait());
}

TEST(SortServiceTest, CancelsAQueuedJob) {
  MemEnv env;
  WriteWorkload(&env, "slow", 100000, 5);
  WriteWorkload(&env, "in", 1000, 6);

  SortServiceOptions options;
  options.max_concurrent_jobs = 1;
  options.governor.capacity_records = 1 << 16;
  SortService service(&env, options);

  JobHandle running, queued;
  ASSERT_TWRS_OK(service.Submit(SpecFor("slow", "out0", 64), &running));
  ASSERT_TWRS_OK(service.Submit(SpecFor("in", "out1", 64), &queued));
  queued.Cancel();
  EXPECT_TRUE(queued.Wait().IsCancelled());
  EXPECT_EQ(queued.state(), JobState::kCancelled);
  ASSERT_TWRS_OK(running.Wait());
  EXPECT_EQ(service.Stats().cancelled, 1u);
  EXPECT_FALSE(env.FileExists("out1"));
}

// A cancelled queued job must reach its terminal state promptly even
// while the scheduler thread is parked inside a blocking governor
// Reserve for a *different* job: the cancelling thread finalizes it.
TEST(SortServiceTest, CancelsAQueuedJobWhileAdmissionIsBlocked) {
  MemEnv env;
  WriteWorkload(&env, "slow", 100000, 12);
  WriteWorkload(&env, "in", 1000, 13);

  SortServiceOptions options;
  options.max_concurrent_jobs = 4;
  // The first job takes the whole budget, so the second blocks in
  // admission until the first finishes.
  options.governor.capacity_records = 64;
  options.governor.min_lease_records = 64;
  SortService service(&env, options);

  JobHandle running, blocked, queued;
  ASSERT_TWRS_OK(service.Submit(SpecFor("slow", "out0", 64), &running));
  for (int i = 0; i < 10000 && running.state() == JobState::kQueued; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_NE(running.state(), JobState::kQueued);
  ASSERT_TWRS_OK(service.Submit(SpecFor("in", "out1", 64), &blocked));
  ASSERT_TWRS_OK(service.Submit(SpecFor("in", "out2", 64), &queued));

  queued.Cancel();
  EXPECT_TRUE(queued.Wait().IsCancelled());
  EXPECT_EQ(queued.state(), JobState::kCancelled);

  ASSERT_TWRS_OK(running.Wait());
  ASSERT_TWRS_OK(blocked.Wait());
}

TEST(SortServiceTest, CancelsARunningJob) {
  MemEnv env;
  WriteWorkload(&env, "in", 200000, 8);

  SortServiceOptions options;
  options.governor.capacity_records = 1 << 16;
  SortService service(&env, options);
  JobHandle handle;
  SortJobSpec spec = SpecFor("in", "out", 256);
  spec.run_generation_threads = 1;
  ASSERT_TWRS_OK(service.Submit(spec, &handle));

  // Wait until the job is genuinely running, then cancel mid-sort.
  for (int i = 0; i < 10000 && handle.state() != JobState::kRunning; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  handle.Cancel();
  const Status status = handle.Wait();
  // The sort usually observes the token mid-run-generation; on a very
  // fast machine it may already have finished.
  if (status.ok()) {
    EXPECT_EQ(handle.state(), JobState::kDone);
  } else {
    EXPECT_TRUE(status.IsCancelled()) << status.ToString();
    EXPECT_EQ(handle.state(), JobState::kCancelled);
    // A cancelled job leaves no scratch and no torn output.
    std::vector<std::string> names;
    ASSERT_TWRS_OK(env.ListDir("tmp", &names));
    EXPECT_TRUE(names.empty());
    EXPECT_FALSE(env.FileExists("out"));
  }
}

TEST(SortServiceTest, DownsizedLeaseAdmitsTheNextJobMidMerge) {
  MemEnv env;
  auto input1 = WriteWorkload(&env, "in1", 400000, 11);
  auto input2 = WriteWorkload(&env, "in2", 20000, 12);

  // The governor holds exactly one full nominal lease: job 2 can only be
  // admitted while job 1 still runs if job 1 returns part of its budget
  // at merge begin. The proof is in the grant size — a lease granted
  // after job 1 fully released would be the full nominal ask again.
  // (Job 1's merge reads and rewrites 400k records after the downsize
  // fires, while the blocked Reserve only needs its condition-variable
  // wake — margin of several orders of magnitude.)
  SortServiceOptions options;
  options.max_concurrent_jobs = 2;
  options.governor.capacity_records = 150000;
  options.governor.min_lease_records = 4096;
  SortService service(&env, options);

  SortJobSpec spec1 = SpecFor("in1", "out1", 150000);
  spec1.run_generation_threads = 1;
  SortJobSpec spec2 = SpecFor("in2", "out2", 150000);
  spec2.run_generation_threads = 1;
  const size_t merge_records = MergePhaseMemoryRecords(spec1.sort);
  ASSERT_LT(merge_records, 150000u);

  JobHandle job1;
  JobHandle job2;
  ASSERT_TWRS_OK(service.Submit(spec1, &job1));
  ASSERT_TWRS_OK(service.Submit(spec2, &job2));
  ASSERT_TWRS_OK(job1.Wait());
  ASSERT_TWRS_OK(job2.Wait());

  const SortJobStats stats1 = job1.stats();
  EXPECT_EQ(stats1.granted_memory_records, 150000u);
  EXPECT_EQ(stats1.downsized_memory_records, merge_records);

  const SortJobStats stats2 = job2.stats();
  // Admitted out of the budget job 1 returned mid-merge.
  EXPECT_EQ(stats2.granted_memory_records, 150000u - merge_records);

  EXPECT_GE(service.GovernorStats().downsized_leases, 1u);

  for (const char* out : {"out1", "out2"}) {
    uint64_t count = 0;
    ASSERT_TWRS_OK(VerifySortedFile(&env, out, &count, nullptr));
  }
}

TEST(SortServiceTest, ShutdownCancelsQueuedJobsAndDrainsRunningOnes) {
  MemEnv env;
  WriteWorkload(&env, "slow", 100000, 9);
  WriteWorkload(&env, "in", 1000, 10);

  SortServiceOptions options;
  options.max_concurrent_jobs = 1;
  options.governor.capacity_records = 1 << 16;
  auto service = std::make_unique<SortService>(&env, options);

  JobHandle running;
  std::vector<JobHandle> queued(3);
  ASSERT_TWRS_OK(service->Submit(SpecFor("slow", "out0", 64), &running));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TWRS_OK(service->Submit(
        SpecFor("in", "q" + std::to_string(i), 64), &queued[i]));
  }
  service.reset();  // ~SortService == Shutdown

  // The running job was drained (done or admitted-and-finished); every
  // job some terminal state; handles stay valid after the service died.
  const Status running_status = running.Wait();
  EXPECT_TRUE(running_status.ok() || running_status.IsCancelled())
      << running_status.ToString();
  int cancelled = 0;
  for (auto& handle : queued) {
    const Status s = handle.Wait();
    if (s.IsCancelled()) {
      ++cancelled;
    } else {
      EXPECT_TWRS_OK(s);
    }
  }
  // At least the jobs never admitted were cancelled (the scheduler may
  // have admitted at most one more before stopping).
  EXPECT_GE(cancelled, 2);
}

// Acceptance criterion of the subsystem: 16 jobs submitted concurrently
// under a governor budget of two jobs' nominal memory all complete, with
// outputs byte-identical to the serial ExternalSorter and the admission
// queueing visible in the service stats.
TEST(SortServiceStressTest, SixteenConcurrentJobsMatchSerialByteForByte) {
  MemEnv env;
  constexpr int kJobs = 16;
  constexpr size_t kNominalMemory = 1024;
  constexpr uint64_t kRecords = 20000;

  std::vector<std::vector<Key>> inputs(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    WorkloadOptions wl;
    wl.num_records = kRecords;
    wl.seed = 100 + j;
    wl.sections = 8;
    inputs[j] = Drain(
        MakeWorkload(static_cast<Dataset>(j % kNumDatasets), wl).get());
    ASSERT_TWRS_OK(
        WriteAllRecords(&env, "in" + std::to_string(j), inputs[j]));
  }

  // Serial references, one sort at a time with the nominal memory.
  for (int j = 0; j < kJobs; ++j) {
    ExternalSortOptions serial;
    serial.memory_records = kNominalMemory;
    serial.twrs = TwoWayOptions::Recommended(kNominalMemory);
    serial.temp_dir = "tmp";
    serial.block_bytes = 512;
    ExternalSorter sorter(&env, serial);
    VectorSource source(inputs[j]);
    ASSERT_TWRS_OK(sorter.Sort(&source, "ref" + std::to_string(j), nullptr));
  }

  SortServiceOptions options;
  options.max_concurrent_jobs = 4;
  options.max_queue_depth = kJobs;
  // The crux: a budget of TWO jobs' nominal memory for 16 concurrent
  // jobs. Admission must queue and shrink, and results must not change.
  options.governor.capacity_records = 2 * kNominalMemory;
  options.governor.min_lease_records = kNominalMemory / 8;

  std::vector<JobHandle> handles(kJobs);
  {
    SortService service(&env, options);
    for (int j = 0; j < kJobs; ++j) {
      SortJobSpec spec = SpecFor("in" + std::to_string(j),
                                 "out" + std::to_string(j), kNominalMemory);
      ASSERT_TWRS_OK(service.Submit(spec, &handles[j]));
    }
    for (int j = 0; j < kJobs; ++j) {
      ASSERT_TWRS_OK(handles[j].Wait());
    }

    const SortServiceStats stats = service.Stats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kJobs));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kJobs));
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_LE(stats.peak_running, 4u);
    // Admission queueing must be visible: 16 jobs cannot all admit at
    // once under a 4-job concurrency gate.
    EXPECT_GT(stats.peak_queued, 0u);

    const MemoryGovernorStats governor = service.GovernorStats();
    EXPECT_EQ(governor.total_leases, static_cast<uint64_t>(kJobs));
    EXPECT_EQ(governor.reserved_records, 0u);
  }

  for (int j = 0; j < kJobs; ++j) {
    const SortJobStats job = handles[j].stats();
    EXPECT_EQ(job.state, JobState::kDone);
    EXPECT_GE(job.granted_memory_records, options.governor.min_lease_records);
    EXPECT_LE(job.granted_memory_records, kNominalMemory);

    // Byte-identical to the serial sort, whatever lease and generator
    // count were used.
    const std::vector<uint8_t>* out =
        env.FileContents("out" + std::to_string(j));
    const std::vector<uint8_t>* ref =
        env.FileContents("ref" + std::to_string(j));
    ASSERT_NE(out, nullptr);
    ASSERT_NE(ref, nullptr);
    EXPECT_TRUE(*out == *ref) << "job " << j << " output differs";
  }

  // Scratch fully reclaimed: inputs, outputs and references only.
  EXPECT_EQ(env.FileCount(), static_cast<size_t>(3 * kJobs));
}

TEST(SortServiceTest, JobProgressIsMonotonicAndReachesTotals) {
  MemEnv env;
  auto input = WriteWorkload(&env, "in", 40000, 13);

  SortServiceOptions options;
  options.governor.capacity_records = 4096;
  options.governor.min_lease_records = 512;
  SortService service(&env, options);
  JobHandle handle;
  ASSERT_TWRS_OK(service.Submit(SpecFor("in", "out", 1024), &handle));

  const auto terminal = [](JobState state) {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  };
  // Poll while the job runs: every counter and the phase are monotonic
  // non-decreasing, whatever instant each snapshot lands on.
  JobProgress prev = handle.Progress();
  while (!terminal(handle.state())) {
    const JobProgress cur = handle.Progress();
    EXPECT_GE(cur.records_ingested, prev.records_ingested);
    EXPECT_GE(cur.records_merged, prev.records_merged);
    EXPECT_GE(cur.bytes_read, prev.bytes_read);
    EXPECT_GE(cur.bytes_written, prev.bytes_written);
    EXPECT_GE(static_cast<uint32_t>(cur.phase),
              static_cast<uint32_t>(prev.phase));
    prev = cur;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TWRS_OK(handle.Wait());

  // Terminal snapshot is exact: it must agree with the job's own result
  // accounting, not just approximate it.
  const SortJobStats stats = handle.stats();
  const JobProgress done = handle.Progress();
  EXPECT_EQ(done.phase, SortProgressPhase::kComplete);
  EXPECT_EQ(done.total_records, input.size());
  EXPECT_EQ(done.records_ingested, input.size());
  EXPECT_EQ(done.records_merged, stats.result.merge.records_written);
  EXPECT_EQ(done.bytes_read, stats.result.bytes_read);
  EXPECT_EQ(done.bytes_written, stats.result.bytes_written);

  // The same job fed the service's metrics registry.
  const SortServiceStats service_stats = service.Stats();
  for (const char* name :
       {"sort.run_generation_seconds", "sort.final_merge_seconds",
        "governor.reserve_wait_seconds", "service.queue_seconds",
        "service.total_seconds"}) {
    const HistogramSummary* h = service_stats.metrics.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GE(h->count, 1u) << name;
  }
  const CounterSummary* completed =
      service_stats.metrics.FindCounter("service.jobs_completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value, 1u);
}

TEST(SortServiceTest, TopKSelectionJobPlansOneGeneratorAndASmallerLease) {
  MemEnv env;
  auto input = WriteWorkload(&env, "in", 50000, 23);

  SortServiceOptions options;
  options.governor.capacity_records = 1 << 16;
  SortService service(&env, options);

  // The limit shrinks the lease ask to the 8192 floor, and a K that fits
  // it runs the dual-heap selection, which generates no runs.
  JobHandle handle;
  SortJobSpec spec = SpecFor("in", "out", 16384);
  spec.run_generation_threads = kAutoRunGenerationThreads;
  spec.sort.limit = 100;
  ASSERT_TWRS_OK(service.Submit(spec, &handle));
  ASSERT_TWRS_OK(handle.Wait());

  const SortJobStats stats = handle.stats();
  EXPECT_EQ(stats.plan_limit, ParallelPlanLimit::kTopKSelection);
  EXPECT_EQ(stats.planned_run_generation_threads, 1u);
  EXPECT_EQ(stats.result.topk_strategy, TopKStrategy::kDualHeap);
  EXPECT_EQ(stats.nominal_memory_records, 16384u);
  EXPECT_EQ(stats.granted_memory_records, 8192u);
  EXPECT_EQ(stats.result.output_records, 100u);

  const JobProgress done = handle.Progress();
  EXPECT_EQ(done.phase, SortProgressPhase::kComplete);
  EXPECT_EQ(done.total_records, input.size());
  EXPECT_EQ(done.total_output_records, 100u);

  // Output is byte-identical to a full sort truncated to the smallest K.
  std::sort(input.begin(), input.end());
  input.resize(100);
  uint64_t count = 0;
  KeyChecksum sum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &sum));
  EXPECT_EQ(count, 100u);
  EXPECT_TRUE(sum == ChecksumOf(input));
}

TEST(SortServiceTest, TopKDescendingJobKeepsTheLargestKeys) {
  MemEnv env;
  auto input = WriteWorkload(&env, "in", 5000, 29);

  SortServiceOptions options;
  options.governor.capacity_records = 1 << 16;
  SortService service(&env, options);

  JobHandle handle;
  SortJobSpec spec = SpecFor("in", "out", 128);
  spec.sort.limit = 50;
  spec.sort.order = SelectOrder::kDescending;
  ASSERT_TWRS_OK(service.Submit(spec, &handle));
  ASSERT_TWRS_OK(handle.Wait());

  EXPECT_EQ(handle.stats().plan_limit, ParallelPlanLimit::kTopKSelection);
  EXPECT_EQ(handle.Progress().total_output_records, 50u);

  std::sort(input.begin(), input.end());
  input.erase(input.begin(), input.end() - 50);
  uint64_t count = 0;
  KeyChecksum sum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &sum));
  EXPECT_EQ(count, 50u);
  EXPECT_TRUE(sum == ChecksumOf(input));
}

TEST(SortServiceTest, RunPruningTopKJobGeneratesRunsInParallel) {
  MemEnv env;
  auto input = WriteWorkload(&env, "in", 50000, 31);

  SortServiceOptions options;
  options.governor.capacity_records = 1 << 16;
  SortService service(&env, options);

  // K above the memory budget: the run-pruning merge, whose runs the
  // planner may split across generators like a full sort's.
  JobHandle handle;
  SortJobSpec spec = SpecFor("in", "out", 1024);
  spec.sort.limit = 5000;
  ASSERT_TWRS_OK(service.Submit(spec, &handle));
  ASSERT_TWRS_OK(handle.Wait());

  const SortJobStats stats = handle.stats();
  EXPECT_NE(stats.plan_limit, ParallelPlanLimit::kTopKSelection);
  EXPECT_GE(stats.planned_run_generation_threads, 2u);
  EXPECT_EQ(stats.result.topk_strategy, TopKStrategy::kRunPruningMerge);
  EXPECT_EQ(stats.result.output_records, 5000u);

  std::sort(input.begin(), input.end());
  input.resize(5000);
  std::vector<Key> got;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
  EXPECT_EQ(got, input);
}

TEST(SortServiceTest, MetricsCanBeDisabled) {
  MemEnv env;
  auto input = WriteWorkload(&env, "in", 2000, 17);

  SortServiceOptions options;
  options.governor.capacity_records = 1 << 16;
  options.enable_metrics = false;
  SortService service(&env, options);
  EXPECT_EQ(service.metrics(), nullptr);

  JobHandle handle;
  ASSERT_TWRS_OK(service.Submit(SpecFor("in", "out", 128), &handle));
  ASSERT_TWRS_OK(handle.Wait());

  // Progress still works without the registry (it rides on the job, not
  // on the metrics); the stats snapshot simply has no histograms.
  const JobProgress done = handle.Progress();
  EXPECT_EQ(done.records_ingested, input.size());
  EXPECT_EQ(done.phase, SortProgressPhase::kComplete);
  EXPECT_TRUE(service.Stats().metrics.histograms.empty());
}

}  // namespace
}  // namespace twrs
