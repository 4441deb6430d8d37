#include "service/memory_governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace twrs {
namespace {

MemoryGovernorOptions Options(size_t capacity, size_t min_lease) {
  MemoryGovernorOptions options;
  options.capacity_records = capacity;
  options.min_lease_records = min_lease;
  return options;
}

/// Spins until `stats().waiting` reaches `waiting` (bounded; the suites
/// run under TSan where wall-clock slack matters).
void AwaitWaiters(const MemoryGovernor& governor, size_t waiting) {
  for (int i = 0; i < 10000; ++i) {
    if (governor.Stats().waiting >= waiting) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "governor never reached " << waiting << " waiters";
}

TEST(MemoryGovernorTest, GrantsFullAskWhenFree) {
  MemoryGovernor governor(Options(1000, 10));
  MemoryLease lease;
  ASSERT_TRUE(governor.Reserve(600, &lease).ok());
  EXPECT_TRUE(lease.valid());
  EXPECT_EQ(lease.records(), 600u);
  const MemoryGovernorStats stats = governor.Stats();
  EXPECT_EQ(stats.reserved_records, 600u);
  EXPECT_EQ(stats.total_leases, 1u);
  EXPECT_EQ(stats.shrunk_leases, 0u);
}

TEST(MemoryGovernorTest, ReleaseReturnsBudget) {
  MemoryGovernor governor(Options(1000, 10));
  {
    MemoryLease lease;
    ASSERT_TRUE(governor.Reserve(1000, &lease).ok());
    EXPECT_EQ(governor.Stats().reserved_records, 1000u);
  }  // RAII release
  EXPECT_EQ(governor.Stats().reserved_records, 0u);
}

TEST(MemoryGovernorTest, MoveTransfersTheLease) {
  MemoryGovernor governor(Options(1000, 10));
  MemoryLease a;
  ASSERT_TRUE(governor.Reserve(400, &a).ok());
  MemoryLease b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.records(), 400u);
  EXPECT_EQ(governor.Stats().reserved_records, 400u);
  b.Release();
  EXPECT_EQ(governor.Stats().reserved_records, 0u);
}

TEST(MemoryGovernorTest, OversizedAskClampsToCapacity) {
  MemoryGovernor governor(Options(500, 10));
  MemoryLease lease;
  ASSERT_TRUE(governor.Reserve(5000, &lease).ok());
  EXPECT_EQ(lease.records(), 500u);
  EXPECT_EQ(governor.Stats().shrunk_leases, 1u);
}

TEST(MemoryGovernorTest, ZeroAskIsInvalid) {
  MemoryGovernor governor(Options(500, 10));
  MemoryLease lease;
  EXPECT_TRUE(governor.Reserve(0, &lease).IsInvalidArgument());
}

TEST(MemoryGovernorTest, ShrinksUnderLoadInsteadOfWaiting) {
  MemoryGovernor governor(Options(1000, 100));
  MemoryLease first;
  ASSERT_TRUE(governor.Reserve(700, &first).ok());
  // 300 free: a 700 ask shrinks to the remainder instead of blocking.
  MemoryLease second;
  ASSERT_TRUE(governor.Reserve(700, &second).ok());
  EXPECT_EQ(second.records(), 300u);
  const MemoryGovernorStats stats = governor.Stats();
  EXPECT_EQ(stats.shrunk_leases, 1u);
  EXPECT_EQ(stats.reserved_records, 1000u);
}

TEST(MemoryGovernorTest, BlocksBelowTheFloorThenGrants) {
  MemoryGovernor governor(Options(1000, 100));
  MemoryLease hog;
  ASSERT_TRUE(governor.Reserve(950, &hog).ok());
  // 50 free < floor 100: the next ask must wait for a release, then get
  // a shrunk-but-bounded lease.
  MemoryLease lease;
  std::thread waiter([&] {
    ASSERT_TRUE(governor.Reserve(800, &lease).ok());
  });
  AwaitWaiters(governor, 1);
  EXPECT_FALSE(lease.valid());
  hog.Release();
  waiter.join();
  EXPECT_EQ(lease.records(), 800u);
}

TEST(MemoryGovernorTest, DownsizeReturnsBudgetAndUnblocksAWaiter) {
  MemoryGovernor governor(Options(1000, 100));
  MemoryLease hog;
  ASSERT_TRUE(governor.Reserve(1000, &hog).ok());
  MemoryLease lease;
  std::thread waiter([&] {
    ASSERT_TRUE(governor.Reserve(600, &lease).ok());
  });
  AwaitWaiters(governor, 1);
  EXPECT_FALSE(lease.valid());
  // Mid-flight renegotiation: the hog keeps 200 records (its merge
  // footprint) and the waiter admits immediately on the freed 800.
  hog.Downsize(200);
  EXPECT_EQ(hog.records(), 200u);
  waiter.join();
  EXPECT_EQ(lease.records(), 600u);
  const MemoryGovernorStats stats = governor.Stats();
  EXPECT_EQ(stats.reserved_records, 800u);
  EXPECT_EQ(stats.downsized_leases, 1u);
}

TEST(MemoryGovernorTest, DownsizeToLargerOrEqualIsANoOp) {
  MemoryGovernor governor(Options(1000, 10));
  MemoryLease lease;
  ASSERT_TRUE(governor.Reserve(300, &lease).ok());
  lease.Downsize(300);
  lease.Downsize(500);
  EXPECT_EQ(lease.records(), 300u);
  EXPECT_EQ(governor.Stats().reserved_records, 300u);
  EXPECT_EQ(governor.Stats().downsized_leases, 0u);

  // An empty lease has nothing to return.
  MemoryLease empty;
  empty.Downsize(0);
  EXPECT_FALSE(empty.valid());
}

TEST(MemoryGovernorTest, DownsizedLeaseReleasesOnlyTheRemainder) {
  MemoryGovernor governor(Options(1000, 10));
  {
    MemoryLease lease;
    ASSERT_TRUE(governor.Reserve(900, &lease).ok());
    lease.Downsize(100);
    EXPECT_EQ(governor.Stats().reserved_records, 100u);
  }  // RAII release of the remaining 100
  EXPECT_EQ(governor.Stats().reserved_records, 0u);
}

TEST(MemoryGovernorTest, CancelUnblocksAWaiter) {
  MemoryGovernor governor(Options(1000, 100));
  MemoryLease hog;
  ASSERT_TRUE(governor.Reserve(1000, &hog).ok());
  CancelToken cancel;
  Status status;
  MemoryLease lease;
  std::thread waiter([&] { status = governor.Reserve(500, &lease, &cancel); });
  AwaitWaiters(governor, 1);
  cancel.Cancel();
  governor.WakeWaiters();
  waiter.join();
  EXPECT_TRUE(status.IsCancelled());
  EXPECT_FALSE(lease.valid());
  // The cancelled ticket must not wedge the queue.
  hog.Release();
  MemoryLease next;
  ASSERT_TRUE(governor.Reserve(1000, &next).ok());
  EXPECT_EQ(next.records(), 1000u);
}

// Starvation-freedom: a big ask parked at the head of the FIFO queue is
// served before small asks that arrived after it, even though the small
// asks alone could have been satisfied immediately.
TEST(MemoryGovernorTest, FifoServesABigAskBeforeLaterSmallAsks) {
  MemoryGovernor governor(Options(1000, 1000));
  MemoryLease hog;
  ASSERT_TRUE(governor.Reserve(1000, &hog).ok());

  std::mutex order_mu;
  std::vector<int> order;
  MemoryLease big_lease;
  std::thread big([&] {
    ASSERT_TRUE(governor.Reserve(1000, &big_lease).ok());
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(0);
  });
  AwaitWaiters(governor, 1);  // the big ask is definitively first in line

  constexpr int kSmall = 4;
  std::vector<std::thread> smalls;
  for (int i = 1; i <= kSmall; ++i) {
    smalls.emplace_back([&governor, &order_mu, &order, i] {
      MemoryLease lease;
      ASSERT_TRUE(governor.Reserve(50, &lease).ok());
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    });
  }
  AwaitWaiters(governor, 1 + kSmall);

  hog.Release();
  big.join();
  {
    std::lock_guard<std::mutex> lock(order_mu);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], 0);  // the big ask went first, unstarved
  }
  big_lease.Release();
  for (auto& t : smalls) t.join();
  EXPECT_EQ(governor.Stats().total_leases, 1u + 1u + kSmall);
}

// Heavy churn: many threads reserving and releasing random-ish asks must
// neither deadlock nor corrupt the budget (reserved never exceeds
// capacity; everything returns to zero).
TEST(MemoryGovernorTest, ConcurrentChurnConservesTheBudget) {
  MemoryGovernor governor(Options(10000, 500));
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&governor, t] {
      for (int r = 0; r < kRounds; ++r) {
        MemoryLease lease;
        const size_t ask = 500 + 977 * static_cast<size_t>(t + r) % 6000;
        ASSERT_TRUE(governor.Reserve(ask, &lease).ok());
        ASSERT_GE(lease.records(), 1u);
        ASSERT_LE(governor.Stats().reserved_records, 10000u);
      }
    });
  }
  for (auto& t : threads) t.join();
  const MemoryGovernorStats stats = governor.Stats();
  EXPECT_EQ(stats.reserved_records, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.total_leases,
            static_cast<uint64_t>(kThreads) * kRounds);
}

}  // namespace
}  // namespace twrs
