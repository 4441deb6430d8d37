#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace twrs {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(pool.Submit([&counter] {
      counter.fetch_add(1);
      return Status::OK();
    }));
  }
  for (TaskHandle& h : handles) ASSERT_TWRS_OK(h.Wait());
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_TWRS_OK(pool.Submit([] { return Status::OK(); }).Wait());
}

TEST(ThreadPoolTest, WaitPropagatesStatus) {
  ThreadPool pool(2);
  TaskHandle h =
      pool.Submit([] { return Status::IOError("disk on fire"); });
  Status s = h.Wait();
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "disk on fire");
  // Wait is idempotent.
  EXPECT_TRUE(h.Wait().IsIOError());
}

TEST(ThreadPoolTest, WaitOnInvalidHandleIsOk) {
  TaskHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_TWRS_OK(h.Wait());
  EXPECT_TRUE(h.done());
}

// A waiter must execute a still-queued task inline rather than block on a
// saturated pool — this is what makes nested waits (a pool task waiting on
// a sub-task) deadlock-free.
TEST(ThreadPoolTest, WaitHelpsWithQueuedTasks) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocker_started = false;
  TaskHandle blocker = pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    blocker_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    return Status::OK();
  });
  {
    // Ensure the single worker is parked inside the blocker.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocker_started; });
  }
  TaskHandle queued = pool.Submit([] { return Status::OK(); });
  // The worker is busy, so this can only finish by running inline.
  ASSERT_TWRS_OK(queued.Wait());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TWRS_OK(blocker.Wait());
}

// Tasks submitted on pool threads may wait on their own sub-tasks even when
// every worker is occupied (the pattern parallel run generators and leaf
// merges rely on).
TEST(ThreadPoolTest, NestedSubmitAndWaitDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<TaskHandle> outer;
  std::atomic<int> inner_done{0};
  for (int i = 0; i < 8; ++i) {
    outer.push_back(pool.Submit([&pool, &inner_done] {
      std::vector<TaskHandle> inner;
      for (int j = 0; j < 4; ++j) {
        inner.push_back(pool.Submit([&inner_done] {
          inner_done.fetch_add(1);
          return Status::OK();
        }));
      }
      for (TaskHandle& h : inner) TWRS_RETURN_IF_ERROR(h.Wait());
      return Status::OK();
    }));
  }
  for (TaskHandle& h : outer) ASSERT_TWRS_OK(h.Wait());
  EXPECT_EQ(inner_done.load(), 32);
}

// One worker runs queued tasks in the order they were submitted.
TEST(ThreadPoolTest, QueuedTasksRunInSubmissionOrder) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocker_started = false;
  std::vector<int> order;
  TaskHandle blocker = pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    blocker_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    return Status::OK();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocker_started; });
  }
  // Queued behind the blocker, in this order.
  TaskHandle first = pool.Submit([&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
    return Status::OK();
  });
  TaskHandle second = pool.Submit([&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
    return Status::OK();
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // Poll rather than Wait: a work-helping Wait could run a still-queued
  // task on this thread, out of the worker's order.
  while (!first.done() || !second.done()) std::this_thread::yield();
  ASSERT_TWRS_OK(blocker.Wait());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        counter.fetch_add(1);
        return Status::OK();
      });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DoneReportsCompletion) {
  ThreadPool pool(1);
  TaskHandle h = pool.Submit([] { return Status::OK(); });
  ASSERT_TWRS_OK(h.Wait());
  EXPECT_TRUE(h.done());
}

}  // namespace
}  // namespace twrs
