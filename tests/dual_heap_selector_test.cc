#include "select/dual_heap_selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/record_source.h"
#include "select/topk.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

std::vector<Key> Select(const std::vector<Key>& input, size_t k,
                        SelectOrder order) {
  DualHeapSelector selector(k, order);
  for (Key key : input) selector.Add(key);
  return selector.Take();
}

/// Reference: full sort, keep K from the requested end, ascending output.
std::vector<Key> Reference(std::vector<Key> input, size_t k,
                           SelectOrder order) {
  std::sort(input.begin(), input.end());
  k = std::min(k, input.size());
  if (order == SelectOrder::kAscending) {
    input.resize(k);
  } else {
    input.erase(input.begin(), input.end() - static_cast<ptrdiff_t>(k));
  }
  return input;
}

TEST(DualHeapSelectorTest, KZeroSelectsNothing) {
  DualHeapSelector selector(0, SelectOrder::kAscending);
  for (Key k : {5, 1, 9}) selector.Add(k);
  EXPECT_EQ(selector.consumed(), 3u);
  EXPECT_EQ(selector.size(), 0u);
  EXPECT_TRUE(selector.Take().empty());
}

TEST(DualHeapSelectorTest, KOneKeepsTheExtremum) {
  EXPECT_EQ(Select({7, 3, 9, 1, 5}, 1, SelectOrder::kAscending),
            std::vector<Key>({1}));
  EXPECT_EQ(Select({7, 3, 9, 1, 5}, 1, SelectOrder::kDescending),
            std::vector<Key>({9}));
}

TEST(DualHeapSelectorTest, KAtLeastNKeepsEverythingSorted) {
  const std::vector<Key> input = {7, 3, 9, 1, 5};
  const std::vector<Key> sorted = {1, 3, 5, 7, 9};
  EXPECT_EQ(Select(input, 5, SelectOrder::kAscending), sorted);
  EXPECT_EQ(Select(input, 100, SelectOrder::kAscending), sorted);
  EXPECT_EQ(Select(input, 100, SelectOrder::kDescending), sorted);
}

TEST(DualHeapSelectorTest, AllDuplicates) {
  const std::vector<Key> input(20, 42);
  EXPECT_EQ(Select(input, 3, SelectOrder::kAscending),
            std::vector<Key>({42, 42, 42}));
  EXPECT_EQ(Select(input, 3, SelectOrder::kDescending),
            std::vector<Key>({42, 42, 42}));
}

TEST(DualHeapSelectorTest, TiesStraddlingTheBoundary) {
  // Three 5s compete for one slot after {1, 2}: exactly one survives.
  EXPECT_EQ(Select({5, 5, 5, 1, 2}, 3, SelectOrder::kAscending),
            std::vector<Key>({1, 2, 5}));
  // Descending mirror: three 1s compete below {5, 2}.
  EXPECT_EQ(Select({1, 1, 1, 5, 2}, 3, SelectOrder::kDescending),
            std::vector<Key>({1, 2, 5}));
}

TEST(DualHeapSelectorTest, DescendingKeepsLargestButOutputsAscending) {
  EXPECT_EQ(Select({4, 8, 2, 6, 10}, 2, SelectOrder::kDescending),
            std::vector<Key>({8, 10}));
}

TEST(DualHeapSelectorTest, BoundTracksTheKthRecord) {
  DualHeapSelector selector(3, SelectOrder::kAscending);
  for (Key k : {10, 20, 30}) selector.Add(k);
  EXPECT_EQ(selector.bound(), 30);  // largest kept key
  selector.Add(5);                  // evicts 30
  EXPECT_EQ(selector.bound(), 20);
  selector.Add(25);  // above the bound: rejected
  EXPECT_EQ(selector.bound(), 20);
  EXPECT_EQ(selector.Take(), std::vector<Key>({5, 10, 20}));
}

TEST(DualHeapSelectorTest, TakeResetsTheSelectorForReuse) {
  DualHeapSelector selector(2, SelectOrder::kAscending);
  for (Key k : {3, 1, 2}) selector.Add(k);
  EXPECT_EQ(selector.consumed(), 3u);
  EXPECT_EQ(selector.Take(), std::vector<Key>({1, 2}));
  EXPECT_EQ(selector.consumed(), 0u);
  EXPECT_EQ(selector.size(), 0u);
  for (Key k : {9, 8, 7}) selector.Add(k);
  EXPECT_EQ(selector.Take(), std::vector<Key>({7, 8}));
}

TEST(DualHeapSelectorTest, RandomizedMatchesPartialSortBothOrders) {
  Random rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.Uniform(500);
    std::vector<Key> input(n);
    for (Key& key : input) {
      key = static_cast<Key>(rng.Uniform(100));  // dense: many ties
    }
    const size_t k = static_cast<size_t>(rng.Uniform(n + 10));
    for (SelectOrder order :
         {SelectOrder::kAscending, SelectOrder::kDescending}) {
      EXPECT_EQ(Select(input, k, order), Reference(input, k, order))
          << "trial " << trial << " n " << n << " k " << k << " order "
          << SelectOrderName(order);
    }
  }
}

TEST(DualHeapSelectorTest, AddBatchMatchesRepeatedAddBothOrders) {
  Random rng(321);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 1 + rng.Uniform(3000);
    // Dense keys in runs of up to 8 equal keys: many ties, and whole runs
    // of keys equal to the bound.
    std::vector<Key> input;
    while (input.size() < n) {
      const Key key = static_cast<Key>(rng.Uniform(64));
      input.resize(std::min(n, input.size() + 1 + rng.Uniform(8)), key);
    }
    // K = 1500 (when n > 1500) fills across a 1024-key batch boundary, as
    // K = 7 does across 3-key ones.
    for (const size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{1500}, n,
                           n + 5}) {
      for (const SelectOrder order :
           {SelectOrder::kAscending, SelectOrder::kDescending}) {
        for (const size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
          SCOPED_TRACE(::testing::Message()
                       << "trial " << trial << " n " << n << " k " << k
                       << " order " << SelectOrderName(order) << " batch "
                       << batch);
          DualHeapSelector batched(k, order);
          DualHeapSelector single(k, order);
          for (size_t done = 0; done < n;) {
            const size_t m = std::min(batch, n - done);
            batched.AddBatch(input.data() + done, m);
            for (size_t i = done; i < done + m; ++i) single.Add(input[i]);
            done += m;
            ASSERT_EQ(batched.consumed(), single.consumed());
            ASSERT_EQ(batched.size(), single.size());
            if (k > 0 && batched.size() == k) {
              ASSERT_EQ(batched.bound(), single.bound());
            }
          }
          const std::vector<Key> expected = Reference(input, k, order);
          EXPECT_EQ(batched.Take(), expected);
          EXPECT_EQ(single.Take(), expected);
        }
      }
    }
  }
}

// Records the size of every read it serves.
class RecordingSource : public VectorSource {
 public:
  using VectorSource::VectorSource;

  const std::vector<size_t>& reads() const { return reads_; }

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    TWRS_RETURN_IF_ERROR(VectorSource::ReadSome(out, cap, n));
    if (*n > 0) reads_.push_back(*n);
    return Status::OK();
  }

 private:
  std::vector<size_t> reads_;
};

TEST(DualHeapSelectorTest, AddAllReadsFullBatchesAndStopsOnAnError) {
  std::vector<Key> input(2500);
  std::iota(input.rbegin(), input.rend(), Key{0});
  RecordingSource source(input);
  DualHeapSelector selector(10, SelectOrder::kAscending);
  ASSERT_TWRS_OK(selector.AddAll(&source));
  EXPECT_EQ(source.reads(), std::vector<size_t>({1024, 1024, 452}));
  EXPECT_EQ(selector.Take(),
            std::vector<Key>({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));

  // A failed read ends the drain after the batches before it.
  input.resize(DualHeapSelector::kIngestBatch);
  testing::FailingSource failing(input, Status::Cancelled("stop"));
  const Status stopped = selector.AddAll(&failing);
  EXPECT_TRUE(stopped.IsCancelled());
  EXPECT_EQ(selector.consumed(), DualHeapSelector::kIngestBatch);
}

TEST(DualHeapSelectorTest, OrderAndStrategyNames) {
  EXPECT_STREQ(SelectOrderName(SelectOrder::kAscending), "asc");
  EXPECT_STREQ(SelectOrderName(SelectOrder::kDescending), "desc");
  EXPECT_STREQ(TopKStrategyName(TopKStrategy::kNone), "none");
  EXPECT_STREQ(TopKStrategyName(TopKStrategy::kDualHeap), "dual-heap");
  EXPECT_STREQ(TopKStrategyName(TopKStrategy::kRunPruningMerge),
               "run-pruning-merge");
}

TEST(DualHeapSelectorTest, PlanTopKStrategyBoundaries) {
  // Dual-heap exactly while the K-record selector fits the budget.
  EXPECT_EQ(PlanTopKStrategy(1, 1024), TopKStrategy::kDualHeap);
  EXPECT_EQ(PlanTopKStrategy(1024, 1024), TopKStrategy::kDualHeap);
  EXPECT_EQ(PlanTopKStrategy(1025, 1024), TopKStrategy::kRunPruningMerge);
  EXPECT_EQ(PlanTopKStrategy(1, 0), TopKStrategy::kRunPruningMerge);
  // No limit: not a top-K sort, whatever the budget.
  EXPECT_EQ(PlanTopKStrategy(0, 1024), TopKStrategy::kNone);
}

}  // namespace
}  // namespace twrs
