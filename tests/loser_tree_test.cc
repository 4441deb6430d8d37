#include "heap/loser_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "util/random.h"

namespace twrs {
namespace {

// Reference merge through the loser tree.
std::vector<Key> MergeWithTree(const std::vector<std::vector<Key>>& ways) {
  LoserTree tree(ways.size());
  std::vector<size_t> pos(ways.size(), 0);
  for (size_t w = 0; w < ways.size(); ++w) {
    if (!ways[w].empty()) tree.SetInitial(w, ways[w][0]);
  }
  tree.Build();
  std::vector<Key> out;
  while (!tree.Exhausted()) {
    const size_t w = tree.WinnerIndex();
    out.push_back(tree.WinnerKey());
    if (++pos[w] < ways[w].size()) {
      tree.ReplaceWinner(ways[w][pos[w]]);
    } else {
      tree.RetireWinner();
    }
  }
  return out;
}

TEST(LoserTreeTest, SingleWay) {
  EXPECT_EQ(MergeWithTree({{1, 2, 3}}), std::vector<Key>({1, 2, 3}));
}

TEST(LoserTreeTest, TwoWays) {
  EXPECT_EQ(MergeWithTree({{1, 3, 5}, {2, 4, 6}}),
            std::vector<Key>({1, 2, 3, 4, 5, 6}));
}

TEST(LoserTreeTest, PaperThreeWayExample) {
  // §2.1.2's worked 3-way merge.
  EXPECT_EQ(MergeWithTree({{2, 8, 12, 16}, {3, 13, 14, 17}, {1, 7, 9, 18}}),
            std::vector<Key>({1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18}));
}

TEST(LoserTreeTest, EmptyWaysAreSkipped) {
  EXPECT_EQ(MergeWithTree({{}, {5}, {}, {1, 9}}),
            std::vector<Key>({1, 5, 9}));
}

TEST(LoserTreeTest, AllWaysEmpty) {
  EXPECT_TRUE(MergeWithTree({{}, {}}).empty());
  LoserTree zero(0);
  zero.Build();
  EXPECT_TRUE(zero.Exhausted());
}

TEST(LoserTreeTest, DuplicateKeysAcrossWays) {
  EXPECT_EQ(MergeWithTree({{5, 5}, {5}, {5, 5, 5}}),
            std::vector<Key>({5, 5, 5, 5, 5, 5}));
}

TEST(LoserTreeTest, TieBreakIsStableByWayIndex) {
  LoserTree tree(3);
  tree.SetInitial(0, 7);
  tree.SetInitial(1, 7);
  tree.SetInitial(2, 7);
  tree.Build();
  EXPECT_EQ(tree.WinnerIndex(), 0u);
  tree.RetireWinner();
  EXPECT_EQ(tree.WinnerIndex(), 1u);
  tree.RetireWinner();
  EXPECT_EQ(tree.WinnerIndex(), 2u);
}

TEST(LoserTreeTest, NonPowerOfTwoWayCounts) {
  for (size_t k : {3u, 5u, 6u, 7u, 9u, 13u}) {
    std::vector<std::vector<Key>> ways(k);
    std::vector<Key> all;
    for (size_t w = 0; w < k; ++w) {
      for (size_t i = 0; i < 10; ++i) {
        ways[w].push_back(static_cast<Key>(w + i * k));
        all.push_back(ways[w].back());
      }
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(MergeWithTree(ways), all) << "k=" << k;
  }
}

TEST(LoserTreeTest, RandomizedAgainstSortProperty) {
  Random rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t k = 1 + rng.Uniform(12);
    std::vector<std::vector<Key>> ways(k);
    std::vector<Key> all;
    for (auto& way : ways) {
      const size_t n = rng.Uniform(50);
      way.resize(n);
      for (Key& key : way) key = static_cast<Key>(rng.Uniform(1000));
      std::sort(way.begin(), way.end());
      all.insert(all.end(), way.begin(), way.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(MergeWithTree(ways), all) << "trial " << trial;
  }
}

// Property: over ways of random length (so they retire in random order,
// some before the first pop) holding keys piled on the numeric limits, the
// tree emits every (key, way) pair in the order std::stable_sort gives the
// way-by-way concatenation — ascending key, ties by way index.
TEST(LoserTreeTest, EmissionEqualsStableSortByKeyThenWay) {
  constexpr Key kMax = std::numeric_limits<Key>::max();
  constexpr Key kMin = std::numeric_limits<Key>::min();
  const Key pool[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  Random rng(29);
  for (size_t k : {1u, 2u, 3u, 5u, 10u, 17u}) {
    for (int trial = 0; trial < 50; ++trial) {
      SCOPED_TRACE(::testing::Message() << "k " << k << " trial " << trial);
      std::vector<std::vector<Key>> ways(k);
      std::vector<std::pair<Key, size_t>> expect;
      for (size_t w = 0; w < k; ++w) {
        ways[w].resize(rng.Uniform(12));
        for (Key& key : ways[w]) key = pool[rng.Uniform(7)];
        std::sort(ways[w].begin(), ways[w].end());
        for (Key key : ways[w]) expect.emplace_back(key, w);
      }
      std::stable_sort(expect.begin(), expect.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });

      LoserTree tree(k);
      std::vector<size_t> pos(k, 0);
      for (size_t w = 0; w < k; ++w) {
        if (!ways[w].empty()) tree.SetInitial(w, ways[w][0]);
      }
      tree.Build();
      std::vector<std::pair<Key, size_t>> got;
      while (!tree.Exhausted()) {
        const size_t w = tree.WinnerIndex();
        got.emplace_back(tree.WinnerKey(), w);
        if (++pos[w] < ways[w].size()) {
          tree.ReplaceWinner(ways[w][pos[w]]);
        } else {
          tree.RetireWinner();
        }
      }
      ASSERT_EQ(got, expect);
    }
  }
}

// Property: Update may give any way, winning or not, live or exhausted, a
// new key; after every operation the winner and the runner-up equal the
// least and second-least live (key, way) pairs of a plain model, and a
// runner-up that is no live way is reported as ways() or more.
TEST(LoserTreeTest, UpdateAndRunnerUpMatchAModel) {
  constexpr Key kMax = std::numeric_limits<Key>::max();
  Random rng(41);
  for (size_t k : {1u, 2u, 3u, 5u, 8u, 13u, 40u}) {
    SCOPED_TRACE(::testing::Message() << "k " << k);
    LoserTree tree(k);
    std::vector<bool> live(k, false);
    std::vector<Key> key(k, 0);
    for (size_t w = 0; w < k; ++w) {
      if (rng.OneIn2()) {
        live[w] = true;
        key[w] = static_cast<Key>(rng.Uniform(20));
        tree.SetInitial(w, key[w]);
      }
    }
    tree.Build();
    for (int op = 0; op < 400; ++op) {
      std::vector<std::pair<Key, size_t>> order;
      for (size_t w = 0; w < k; ++w) {
        if (live[w]) order.emplace_back(key[w], w);
      }
      std::sort(order.begin(), order.end());
      ASSERT_EQ(tree.Exhausted(), order.empty()) << "op " << op;
      if (!order.empty()) {
        ASSERT_EQ(tree.WinnerIndex(), order[0].second) << "op " << op;
        ASSERT_EQ(tree.WinnerKey(), order[0].first);
        size_t runner_way;
        const Key runner = tree.RunnerUp(&runner_way);
        if (order.size() > 1) {
          ASSERT_EQ(runner_way, order[1].second) << "op " << op;
          ASSERT_EQ(runner, order[1].first);
        } else {
          ASSERT_GE(runner_way, k);
          ASSERT_EQ(runner, kMax);
        }
      }
      const size_t w = rng.Uniform(k);
      const Key next = static_cast<Key>(rng.Uniform(20));
      switch (order.empty() ? 0 : rng.Uniform(3)) {
        case 0:  // any way, including the winner and exhausted ones
          tree.Update(w, next);
          live[w] = true;
          key[w] = next;
          break;
        case 1:
          tree.ReplaceWinner(next);
          key[order[0].second] = next;
          break;
        default:
          tree.RetireWinner();
          live[order[0].second] = false;
          break;
      }
    }
  }
}

}  // namespace
}  // namespace twrs
