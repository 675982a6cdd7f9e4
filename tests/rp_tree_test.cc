#include "rpm/core/rp_tree.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::A;
using ::rpm::testing::B;
using ::rpm::testing::C;
using ::rpm::testing::D;
using ::rpm::testing::E;
using ::rpm::testing::F;

/// Builds the paper's RP-tree (Figure 5(b)): candidate order a,b,c,d,e,f
/// (ranks 0..5), inserting the Table 1 transactions' candidate projections.
TsPrefixTree BuildPaperTree() {
  TsPrefixTree tree({A, B, C, D, E, F});
  const std::vector<std::pair<Timestamp, std::vector<uint32_t>>> rows = {
      {1, {0, 1}},           {2, {0, 2, 3}},    {3, {0, 1, 4, 5}},
      {4, {0, 1, 2, 3}},     {5, {2, 3, 4, 5}}, {6, {4, 5}},
      {7, {0, 1, 2}},        {9, {2, 3}},       {10, {2, 3, 4, 5}},
      {11, {0, 1, 4, 5}},    {12, {0, 1, 2, 3, 4, 5}},
      {14, {0, 1}},
  };
  for (const auto& [ts, ranks] : rows) tree.InsertTransaction(ranks, ts);
  return tree;
}

TEST(TsPrefixTreeTest, Figure5bNodeCount) {
  TsPrefixTree tree = BuildPaperTree();
  // Distinct candidate-projection prefixes of Table 1: 16 nodes.
  EXPECT_EQ(tree.NodeCount(), 16u);
}

TEST(TsPrefixTreeTest, Lemma2SizeBound) {
  TsPrefixTree tree = BuildPaperTree();
  // Sum of |CI(t)| over Table 1 = 46 total occurrences - 6 of pruned 'g'.
  EXPECT_LE(tree.NodeCount(), 40u);
}

TEST(TsPrefixTreeTest, TailTsListsMatchFigure5b) {
  TsPrefixTree tree = BuildPaperTree();
  // Collect (path+rank -> ts_list) for every rank.
  std::map<std::vector<uint32_t>, TimestampList> tails;
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    tree.ForEachNodeOfRank(
        rank,
        [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
          if (ts.empty()) return;
          std::vector<uint32_t> key = path;
          key.push_back(static_cast<uint32_t>(rank));
          tails[key] = ts;
        });
  }
  const std::map<std::vector<uint32_t>, TimestampList> expected = {
      {{0, 1}, {1, 14}},
      {{0, 2, 3}, {2}},
      {{0, 1, 4, 5}, {3, 11}},
      {{0, 1, 2, 3}, {4}},
      {{2, 3, 4, 5}, {5, 10}},
      {{4, 5}, {6}},
      {{0, 1, 2}, {7}},
      {{2, 3}, {9}},
      {{0, 1, 2, 3, 4, 5}, {12}},
  };
  EXPECT_EQ(tails, expected);
}

TEST(TsPrefixTreeTest, PrefixTreeForItemFMatchesFigure6a) {
  TsPrefixTree tree = BuildPaperTree();
  // Rank 5 = item 'f'. Its prefix paths and ts-lists are Figure 6(a).
  std::map<std::vector<uint32_t>, TimestampList> collected;
  tree.ForEachNodeOfRank(
      5, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
        collected[path] = ts;
      });
  const std::map<std::vector<uint32_t>, TimestampList> expected = {
      {{0, 1, 4}, {3, 11}},
      {{2, 3, 4}, {5, 10}},
      {{4}, {6}},
      {{0, 1, 2, 3, 4}, {12}},
  };
  EXPECT_EQ(collected, expected);
}

TEST(TsPrefixTreeTest, PushUpMovesListsToParents) {
  TsPrefixTree tree = BuildPaperTree();
  tree.PushUpAndRemove(5);
  EXPECT_EQ(tree.HeadOfRank(5), nullptr);
  EXPECT_EQ(tree.NodeCount(), 12u);  // Four 'f' nodes removed.

  // Figure 6(c): the 'e' nodes now hold the ts-lists f carried.
  std::multiset<TimestampList> e_lists;
  std::multiset<TimestampList> expected = {{3, 11}, {5, 10}, {6}, {12}};
  tree.ForEachNodeOfRank(
      4, [&](const std::vector<uint32_t>&, const TimestampList& ts) {
        TimestampList sorted = ts;
        std::sort(sorted.begin(), sorted.end());
        e_lists.insert(sorted);
      });
  EXPECT_EQ(e_lists, expected);
}

TEST(TsPrefixTreeTest, FullBottomUpConsumesTree) {
  TsPrefixTree tree = BuildPaperTree();
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    tree.PushUpAndRemove(rank);
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.NodeCount(), 0u);
}

TEST(TsPrefixTreeTest, CollectedTimestampsCoverEachTransactionOnce) {
  // Property 3: each transaction's projection appears exactly once. The
  // total of all ts-list lengths collected at each rank, bottom-up, must
  // be the number of transactions containing that rank's item.
  TsPrefixTree tree = BuildPaperTree();
  const size_t expected_support[6] = {8, 7, 7, 6, 6, 6};
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    size_t total = 0;
    tree.ForEachNodeOfRank(
        rank, [&](const std::vector<uint32_t>&, const TimestampList& ts) {
          total += ts.size();
        });
    EXPECT_EQ(total, expected_support[rank]) << "rank " << rank;
    tree.PushUpAndRemove(rank);
  }
}

TEST(TsPrefixTreeTest, InsertPathMergesIdenticalPaths) {
  TsPrefixTree tree({10, 20});
  tree.InsertPath({0, 1}, TimestampList{5, 7});
  tree.InsertPath({0, 1}, TimestampList{9});
  EXPECT_EQ(tree.NodeCount(), 2u);
  size_t calls = 0;
  tree.ForEachNodeOfRank(
      1, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
        ++calls;
        EXPECT_EQ(path, (std::vector<uint32_t>{0}));
        EXPECT_EQ(ts, (TimestampList{5, 7, 9}));
      });
  EXPECT_EQ(calls, 1u);
}

TEST(TsPrefixTreeTest, EmptyInsertIsNoOp) {
  TsPrefixTree tree({10});
  tree.InsertTransaction({}, 1);
  tree.InsertPath({}, TimestampList{1, 2});
  EXPECT_TRUE(tree.empty());
}

TEST(TsPrefixTreeTest, ItemAtRankMapsBack) {
  TsPrefixTree tree({42, 17, 5});
  EXPECT_EQ(tree.num_ranks(), 3u);
  EXPECT_EQ(tree.ItemAtRank(0), 42u);
  EXPECT_EQ(tree.ItemAtRank(2), 5u);
}

TEST(TsPrefixTreeTest, SharedPrefixesCompress) {
  TsPrefixTree tree({1, 2, 3});
  tree.InsertTransaction({0, 1, 2}, 1);
  tree.InsertTransaction({0, 1, 2}, 2);
  tree.InsertTransaction({0, 1}, 3);
  EXPECT_EQ(tree.NodeCount(), 3u);  // One path, shared.
}

// --- Clone (the query engine's build-once/mine-many primitive) --------------

/// Per-rank (path, ts-list) pairs in node-link *chain order* — the order
/// mining visits conditional pattern bases, so equality here implies
/// bit-identical mining behaviour, counters included.
std::vector<std::pair<std::vector<uint32_t>, TimestampList>> ChainOfRank(
    const TsPrefixTree& tree, size_t rank) {
  std::vector<std::pair<std::vector<uint32_t>, TimestampList>> chain;
  tree.ForEachNodeOfRank(
      rank, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
        chain.emplace_back(path, ts);
      });
  return chain;
}

TEST(TsPrefixTreeTest, ClonePreservesStructureAndChainOrder) {
  TsPrefixTree tree = BuildPaperTree();
  TsPrefixTree clone = tree.Clone();
  EXPECT_EQ(clone.NodeCount(), tree.NodeCount());
  EXPECT_EQ(clone.items_by_rank(), tree.items_by_rank());
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    EXPECT_EQ(ChainOfRank(clone, rank), ChainOfRank(tree, rank))
        << "rank " << rank;
  }
}

TEST(TsPrefixTreeTest, CloneIsIndependentOfTheOriginal) {
  TsPrefixTree tree = BuildPaperTree();
  TsPrefixTree clone = tree.Clone();
  // Consume the clone bottom-up (what mining does); the master is
  // untouched and can produce further identical clones.
  for (size_t rank = clone.num_ranks(); rank-- > 0;) {
    clone.PushUpAndRemove(rank);
  }
  EXPECT_TRUE(clone.empty());
  EXPECT_EQ(tree.NodeCount(), 16u);
  TsPrefixTree again = tree.Clone();
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    EXPECT_EQ(ChainOfRank(again, rank), ChainOfRank(tree, rank));
  }
}

TEST(TsPrefixTreeTest, CloneOfEmptyTree) {
  TsPrefixTree tree({1, 2, 3});
  TsPrefixTree clone = tree.Clone();
  EXPECT_EQ(clone.NodeCount(), 0u);
  EXPECT_EQ(clone.num_ranks(), 3u);
  clone.InsertTransaction({0, 2}, 4);  // Still a usable tree.
  EXPECT_EQ(clone.NodeCount(), 2u);
  EXPECT_EQ(tree.NodeCount(), 0u);
}

// --- RetireBefore: the windowed miner's lazy expiry sweep.

/// Sum of every ts-list entry below `rank_count` ranks via the public walk.
size_t CountTimestamps(const TsPrefixTree& tree) {
  size_t n = 0;
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    tree.ForEachNodeOfRank(rank, [&](const std::vector<uint32_t>&,
                                     const TimestampList& ts) {
      n += ts.size();
    });
  }
  return n;
}

TEST(TsPrefixTreeTest, RetireBeforeDropsOldTimestampsOnly) {
  TsPrefixTree tree = BuildPaperTree();
  const size_t nodes_before = tree.NodeCount();
  const size_t ts_before = tree.TimestampCount();
  TsPrefixTree::RetireStats stats = tree.RetireBefore(5);
  // Table 1 has 4 transactions below ts 5; each contributes one tail
  // timestamp.
  EXPECT_EQ(stats.timestamps_retired, 4u);
  EXPECT_EQ(tree.TimestampCount(), ts_before - 4);
  EXPECT_EQ(CountTimestamps(tree), ts_before - 4);
  // Every node with an emptied ts-list in Figure 5(b) still has a live
  // descendant or sibling-path timestamps... except the pure prefix
  // {a,b} (ts 1,14): ts 14 survives, so no node dies here.
  EXPECT_EQ(stats.nodes_retired, nodes_before - tree.NodeCount());
  // No surviving timestamp is below the cutoff.
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    tree.ForEachNodeOfRank(rank, [&](const std::vector<uint32_t>&,
                                     const TimestampList& ts) {
      for (Timestamp t : ts) EXPECT_GE(t, 5);
    });
  }
}

TEST(TsPrefixTreeTest, RetireBeforeDetachesEmptyChildlessNodes) {
  // Two leaf paths: {0,1} live only at ts 2, {0} at ts 10. Retiring past
  // 2 must drop the {0,1} leaf (empty + childless) but keep its parent
  // {0}, which still holds ts 10.
  TsPrefixTree tree({A, B});
  tree.InsertTransaction({0, 1}, 2);
  tree.InsertTransaction({0}, 10);
  ASSERT_EQ(tree.NodeCount(), 2u);
  TsPrefixTree::RetireStats stats = tree.RetireBefore(5);
  EXPECT_EQ(stats.timestamps_retired, 1u);
  EXPECT_EQ(stats.nodes_retired, 1u);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_EQ(tree.HeadOfRank(1), nullptr);
  ASSERT_NE(tree.HeadOfRank(0), nullptr);
  // The chain of rank 0 is intact and walkable.
  size_t visits = 0;
  tree.ForEachNodeOfRank(0, [&](const std::vector<uint32_t>& path,
                                const TimestampList& ts) {
    ++visits;
    EXPECT_TRUE(path.empty());
    EXPECT_EQ(ts, (TimestampList{10}));
  });
  EXPECT_EQ(visits, 1u);
}

TEST(TsPrefixTreeTest, RetireBeforeCascadesUpEmptyPrefixes) {
  // A single deep path whose only timestamp expires: every node on the
  // path empties bottom-up and the whole path is detached.
  TsPrefixTree tree({A, B, C});
  tree.InsertTransaction({0, 1, 2}, 3);
  ASSERT_EQ(tree.NodeCount(), 3u);
  TsPrefixTree::RetireStats stats = tree.RetireBefore(100);
  EXPECT_EQ(stats.timestamps_retired, 1u);
  EXPECT_EQ(stats.nodes_retired, 3u);
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_TRUE(tree.empty());
  for (size_t rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(tree.HeadOfRank(rank), nullptr);
  }
  // The tree stays usable after a full retire.
  tree.InsertTransaction({0, 2}, 200);
  EXPECT_EQ(tree.NodeCount(), 2u);
  EXPECT_EQ(tree.TimestampCount(), 1u);
}

TEST(TsPrefixTreeTest, RetireBeforeNoOpCutoff) {
  TsPrefixTree tree = BuildPaperTree();
  const size_t nodes = tree.NodeCount();
  const size_t ts = tree.TimestampCount();
  TsPrefixTree::RetireStats stats = tree.RetireBefore(0);
  EXPECT_EQ(stats.timestamps_retired, 0u);
  EXPECT_EQ(stats.nodes_retired, 0u);
  EXPECT_EQ(tree.NodeCount(), nodes);
  EXPECT_EQ(tree.TimestampCount(), ts);
}

TEST(TsPrefixTreeTest, RetireBeforePreservesChainOrderAndRuns) {
  // Node-link chain order and the sorted-runs property of ts-lists are
  // the determinism contract the miners rely on: after retiring, each
  // surviving list must still be the original subsequence (order kept).
  TsPrefixTree tree({A, B});
  tree.InsertTransaction({0, 1}, 1);
  tree.InsertTransaction({0}, 2);
  tree.InsertTransaction({0, 1}, 3);
  tree.InsertTransaction({0}, 4);
  tree.InsertTransaction({0, 1}, 5);
  tree.RetireBefore(3);
  std::vector<TimestampList> lists;
  tree.ForEachNodeOfRank(1, [&](const std::vector<uint32_t>&,
                                const TimestampList& ts) {
    lists.push_back(ts);
  });
  ASSERT_EQ(lists.size(), 1u);
  EXPECT_EQ(lists[0], (TimestampList{3, 5}));
  tree.ForEachNodeOfRank(0, [&](const std::vector<uint32_t>&,
                                const TimestampList& ts) {
    EXPECT_EQ(ts, (TimestampList{4}));
  });
}

}  // namespace
}  // namespace rpm
