// Root-sharded RP-tree build vs the one-worker build: BuildRankedTree with
// several workers (one shard per lowest-rank range, spliced by first
// touch) must produce a tree that is *observably identical* to the
// one-shard build — same node-link chain order, same root paths, same
// per-node ts-lists — and mining either tree must yield bit-identical
// results and counters. The per-subtree parallel TsPreorderLayout must
// likewise equal the one-worker layout and the push-up definition.

#include <algorithm>
#include <cstdint>
#include <map>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/arena.h"
#include "rpm/core/cancellation.h"
#include "rpm/core/projection.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/rp_tree.h"
#include "rpm/common/random.h"
#include "rpm/engine/session.h"
#include "rpm/gen/paper_datasets.h"
#include "rpm/timeseries/tdb_builder.h"
#include "rpm/timeseries/transaction_database.h"
#include "rpm/verify/fault_injection.h"
#include "test_util.h"

namespace rpm {
namespace {

constexpr size_t kWorkerCounts[] = {1, 2, 3, 4, 8};

/// Flattened observable state of a tree: for every rank, the chain-order
/// sequence of (root path, ts-list). Equality of this snapshot is
/// equality of everything mining can see.
struct TreeSnapshot {
  struct NodeView {
    std::vector<uint32_t> path;
    TimestampList ts_list;
    bool operator==(const NodeView&) const = default;
  };
  std::vector<std::vector<NodeView>> by_rank;
  size_t node_count = 0;
  size_t timestamp_count = 0;
  bool operator==(const TreeSnapshot&) const = default;
};

TreeSnapshot Snapshot(const TsPrefixTree& tree) {
  TreeSnapshot snap;
  snap.by_rank.resize(tree.num_ranks());
  snap.node_count = tree.NodeCount();
  snap.timestamp_count = tree.TimestampCount();
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    tree.ForEachNodeOfRank(
        rank, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
          snap.by_rank[rank].push_back({path, ts});
        });
  }
  return snap;
}

/// Every item of `db` in support-descending order (ties by id): the tree
/// over it holds every transaction, so shards see the whole database.
std::vector<ItemId> SupportOrder(const TransactionDatabase& db) {
  std::vector<size_t> support(db.ItemUniverseSize(), 0);
  for (const Transaction& tr : db.transactions()) {
    for (ItemId item : tr.items) ++support[item];
  }
  std::vector<ItemId> order;
  for (ItemId item = 0; item < support.size(); ++item) {
    if (support[item] > 0) order.push_back(item);
  }
  std::stable_sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    return support[a] > support[b];
  });
  return order;
}

/// A database big enough to clear kMinTransactionsPerBuildShard for
/// several workers (sharding stays dormant on toy inputs).
TransactionDatabase BigRandomDb(uint64_t seed) {
  testing::RandomDbSpec spec;
  spec.num_items = 12;
  spec.num_timestamps = 1600;
  spec.max_gap = 3;
  spec.num_bursts = 8;
  return testing::MakeRandomDb(spec, seed);
}

/// T10-shaped uniform data: short transactions over a wide item universe.
TransactionDatabase T10Db(double scale = 0.03) {
  return gen::MakeT10I4D100K(scale, 5);
}

/// One item in almost every transaction, so nearly all of the lowest-rank
/// weight sits at rank 0 (Shop-14 and the dense burst stream look alike).
TransactionDatabase SkewedDb(uint64_t seed, Timestamp transactions = 3000) {
  Rng rng(seed);
  TdbBuilder builder;
  Itemset txn;
  for (Timestamp ts = 1; ts <= transactions; ++ts) {
    txn.clear();
    if (rng.NextBernoulli(0.95)) txn.push_back(0);
    for (ItemId item = 1; item < 50; ++item) {
      if (rng.NextBernoulli(0.1)) txn.push_back(item);
    }
    if (!txn.empty()) builder.AddTransaction(ts, txn);
  }
  return builder.Build();
}

RpParams BigDbParams() {
  RpParams params;
  params.period = 4;
  params.min_ps = 3;
  params.min_rec = 2;
  return params;
}

/// The shard build at every worker count equals the one-worker build.
void ExpectShardBuildsMatchOneWorker(const TransactionDatabase& db,
                                     const std::vector<ItemId>& order) {
  const TsPrefixTree reference = BuildRankedTree(db, order, nullptr, 1);
  const TreeSnapshot want = Snapshot(reference);
  ASSERT_GT(want.node_count, 0u);
  for (size_t workers : kWorkerCounts) {
    TreeBuildStats stats;
    const TsPrefixTree tree = BuildRankedTree(db, order, nullptr, workers,
                                              &stats);
    EXPECT_EQ(Snapshot(tree), want) << "workers=" << workers;
    EXPECT_GE(tree.NodeSeqBound(), tree.NodeCount() + 1);
    const size_t shards =
        std::min(workers, std::max<size_t>(1, db.size() / 256));
    EXPECT_EQ(stats.partials_merged, shards - 1) << "workers=" << workers;
    EXPECT_EQ(stats.threads_used, shards);
    EXPECT_EQ(stats.merged_nodes, 0u);
    if (shards == 1) {
      EXPECT_EQ(stats.merge_seconds, 0.0);
    }
  }
}

TEST(TreeBuildParallelTest, StructurallyIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {1u, 7u, 99u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const TransactionDatabase db = BigRandomDb(seed);
    ExpectShardBuildsMatchOneWorker(
        db, PrepareMining(db, BigDbParams()).items_by_rank);
  }
}

TEST(TreeBuildParallelTest, ShardBuildMatchesOneWorkerOnT10Data) {
  const TransactionDatabase db = T10Db();
  ExpectShardBuildsMatchOneWorker(db, SupportOrder(db));
}

TEST(TreeBuildParallelTest, ShardBuildMatchesOneWorkerOnSkewedData) {
  const TransactionDatabase db = SkewedDb(3);
  const std::vector<ItemId> order = SupportOrder(db);
  ASSERT_EQ(order.front(), 0u);  // The near-universal item is rank 0.
  ExpectShardBuildsMatchOneWorker(db, order);
}

TEST(TreeBuildParallelTest, MoreWorkersThanRootRanksLeavesShardsEmpty) {
  // Two candidate ranks, so at most two root children: of eight shards at
  // least six hold nothing.
  const TransactionDatabase db = SkewedDb(4);
  const std::vector<ItemId> order = {0, 1};
  ExpectShardBuildsMatchOneWorker(db, order);
  TreeBuildStats stats;
  BuildRankedTree(db, order, nullptr, 8, &stats);
  EXPECT_EQ(stats.partials_merged, 7u);
}

TEST(TreeBuildParallelTest, SmallDatabasesStaySequential) {
  const TransactionDatabase db = testing::PaperExampleDb();
  const PreparedMining prepared =
      PrepareMining(db, testing::PaperExampleParams());
  TreeBuildStats stats;
  const TsPrefixTree tree =
      BuildRankedTree(db, prepared.items_by_rank, nullptr, 8, &stats);
  // 12 transactions cannot fill even one 256-transaction shard per extra
  // worker, so the build runs as one shard.
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_EQ(stats.partials_merged, 0u);
  EXPECT_EQ(stats.merge_seconds, 0.0);
  EXPECT_EQ(Snapshot(tree), Snapshot(prepared.tree));
}

TEST(TreeBuildParallelTest, PreparedMiningThreadsPropagate) {
  const TransactionDatabase db = BigRandomDb(3);
  const RpParams params = BigDbParams();
  const PreparedMining seq = PrepareMining(db, params);
  const PreparedMining par =
      PrepareMining(db, params, PruningMode::kErec, nullptr, 4);
  EXPECT_EQ(seq.tree_build.threads_used, 1u);
  EXPECT_GT(par.tree_build.threads_used, 1u);
  EXPECT_EQ(par.tree_build.partials_merged, par.tree_build.threads_used - 1);
  EXPECT_EQ(Snapshot(par.tree), Snapshot(seq.tree));
  EXPECT_EQ(par.initial_tree_nodes, seq.initial_tree_nodes);
  EXPECT_EQ(par.items_by_rank, seq.items_by_rank);
}

TEST(TreeBuildParallelTest, MiningEqualAcrossTreeBuildBackends) {
  const TransactionDatabase db = BigRandomDb(11);
  const RpParams params = BigDbParams();
  const PreparedMining seq = PrepareMining(db, params);
  const PreparedMining par =
      PrepareMining(db, params, PruningMode::kErec, nullptr, 4);
  const RpGrowthResult a = MineFromPrepared(seq, seq.tree.Clone(), params);
  const RpGrowthResult b = MineFromPrepared(par, par.tree.Clone(), params);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  EXPECT_EQ(a.patterns, b.patterns);
  // Schedule-invariant counters must agree bit-for-bit.
  EXPECT_EQ(a.stats.patterns_examined, b.stats.patterns_examined);
  EXPECT_EQ(a.stats.conditional_trees, b.stats.conditional_trees);
  EXPECT_EQ(a.stats.merge_invocations, b.stats.merge_invocations);
  EXPECT_EQ(a.stats.runs_merged, b.stats.runs_merged);
  EXPECT_EQ(a.stats.timestamps_merged, b.stats.timestamps_merged);
  EXPECT_EQ(a.stats.gate_lists_scanned, b.stats.gate_lists_scanned);
  EXPECT_EQ(a.stats.gate_gaps_scanned, b.stats.gate_gaps_scanned);
  EXPECT_EQ(a.stats.gate_gaps_simd, b.stats.gate_gaps_simd);
  // And the build provenance must be visible on the folded stats.
  EXPECT_EQ(a.stats.tree_build_threads, 1u);
  EXPECT_GT(b.stats.tree_build_threads, 1u);
  EXPECT_EQ(b.stats.tree_partials_merged, b.stats.tree_build_threads - 1);
  for (const RecurringPattern& p : a.patterns) {
    EXPECT_EQ(testing::VerifyPatternAgainstDb(db, params, p), "");
  }
}

TEST(TreeBuildParallelTest, EndToEndMiningUsesParallelBuild) {
  const TransactionDatabase db = BigRandomDb(21);
  const RpParams params = BigDbParams();
  RpGrowthOptions seq_options;
  RpGrowthOptions par_options;
  par_options.num_threads = 4;
  const RpGrowthResult a = MineRecurringPatterns(db, params, seq_options);
  const RpGrowthResult b = MineRecurringPatterns(db, params, par_options);
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.stats.tree_build_threads, 1u);
  EXPECT_GT(b.stats.tree_build_threads, 1u);
}

/// Inserts each transaction (ranks, ts = its index) into `tree`, keeping
/// the creating transaction of every new node as BuildRankedTree does.
void InsertRecorded(const std::vector<uint32_t>& ranks, uint32_t index,
                    TsPrefixTree* tree, std::vector<uint32_t>* first_touch) {
  tree->InsertTransaction(ranks, static_cast<Timestamp>(index));
  first_touch->resize(tree->NodeSeqBound(), index);
}

TEST(TreeBuildParallelTest, SpliceInterleavesChainsByFirstTouch) {
  const std::vector<ItemId> items = {0, 1, 2, 3};
  // Lowest rank 0 goes to shard 0, lowest ranks 1-3 to shard 1; the
  // shards' chains of ranks 1, 2 and 3 interleave in database order.
  const std::vector<std::vector<uint32_t>> transactions = {
      {1, 2}, {0, 1}, {0, 2, 3}, {1, 3}, {0, 1, 3}, {2, 3}, {1, 2}, {0, 1}};
  TsPrefixTree want(items);
  std::vector<TsPrefixTree> shards;
  shards.emplace_back(items);
  shards.emplace_back(items);
  std::vector<std::vector<uint32_t>> first_touch(2);
  for (uint32_t i = 0; i < transactions.size(); ++i) {
    want.InsertTransaction(transactions[i], static_cast<Timestamp>(i));
    const size_t shard = transactions[i].front() == 0 ? 0 : 1;
    InsertRecorded(transactions[i], i, &shards[shard], &first_touch[shard]);
  }
  const size_t seq_bound =
      shards[0].NodeSeqBound() + shards[1].NodeSeqBound();
  const TsPrefixTree spliced =
      TsPrefixTree::Splice(std::move(shards), first_touch, 2);
  EXPECT_EQ(Snapshot(spliced), Snapshot(want));
  EXPECT_EQ(spliced.NodeSeqBound(), seq_bound);
  // Seqs stay distinct after the per-shard offsets: the seq-indexed
  // Clone and layout see every node exactly once.
  EXPECT_EQ(Snapshot(spliced.Clone()), Snapshot(want));
  const TsPreorderLayout got(spliced);
  const TsPreorderLayout expected(want);
  for (size_t rank = 0; rank < items.size(); ++rank) {
    EXPECT_EQ(got.RankTimestampCount(rank), expected.RankTimestampCount(rank));
  }
}

TEST(TreeBuildParallelTest, SpliceOfOneShardIsThatShard) {
  const std::vector<ItemId> items = {0, 1, 2};
  TsPrefixTree want(items);
  std::vector<TsPrefixTree> shards;
  shards.emplace_back(items);
  std::vector<std::vector<uint32_t>> first_touch(1);
  const std::vector<std::vector<uint32_t>> transactions = {
      {0, 1}, {1, 2}, {0, 2}};
  for (uint32_t i = 0; i < transactions.size(); ++i) {
    want.InsertTransaction(transactions[i], static_cast<Timestamp>(i));
    InsertRecorded(transactions[i], i, &shards[0], &first_touch[0]);
  }
  const TsPrefixTree spliced =
      TsPrefixTree::Splice(std::move(shards), first_touch, 4);
  EXPECT_EQ(Snapshot(spliced), Snapshot(want));
  EXPECT_EQ(spliced.NodeSeqBound(), want.NodeSeqBound());
}

/// Counts live instances, to check that an arena destroys every object
/// it adopted, padding included.
struct Counted {
  static inline int live = 0;
  int value = 0;
  Counted() { ++live; }
  explicit Counted(int v) : value(v) { ++live; }
  ~Counted() { --live; }
};

TEST(ArenaTest, AdoptKeepsAddressesAndDestroysEveryObject) {
  {
    Arena<Counted, 4> arena;
    Arena<Counted, 4> other;
    std::vector<Counted*> mine;
    std::vector<Counted*> theirs;
    for (int i = 0; i < 6; ++i) mine.push_back(arena.Create(i));
    for (int i = 0; i < 5; ++i) theirs.push_back(other.Create(100 + i));
    arena.Adopt(std::move(other));
    EXPECT_EQ(other.size(), 0u);
    // New objects still land in the arena's own partial chunk.
    mine.push_back(arena.Create(6));
    mine.push_back(arena.Create(7));
    mine.push_back(arena.Create(8));
    for (int i = 0; i < 9; ++i) EXPECT_EQ(mine[i]->value, i);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(theirs[i]->value, 100 + i);
    arena.Adopt(Arena<Counted, 4>());  // Adopting nothing is a no-op.
    Arena<Counted, 4> empty;
    empty.Adopt(std::move(arena));
    EXPECT_EQ(theirs[4]->value, 104);
    EXPECT_EQ(mine[8]->value, 8);
  }
  EXPECT_EQ(Counted::live, 0);
}

// --- Governance and faults ------------------------------------------------

/// Live tracked bytes of `budget` are zero: adding the recorded peak back
/// must not raise it.
void ExpectTrackedBytesNetZero(QueryBudget* budget) {
  const uint64_t peak = budget->usage().tracked_bytes_peak;
  budget->AddTrackedBytes(peak);
  EXPECT_EQ(budget->usage().tracked_bytes_peak, peak);
  budget->ReleaseTrackedBytes(peak);
}

TEST(TreeBuildParallelTest, TrackedBytesNetToZeroAfterShardBuild) {
  const TransactionDatabase db = T10Db();
  const std::vector<ItemId> order = SupportOrder(db);
  for (size_t workers : kWorkerCounts) {
    QueryBudget budget(ResourceLimits{}, nullptr);
    const TsPrefixTree tree = BuildRankedTree(db, order, &budget, workers);
    EXPECT_FALSE(budget.stop_requested());
    EXPECT_GE(budget.usage().tracked_bytes_peak, tree.ApproxBytes());
    ExpectTrackedBytesNetZero(&budget);
  }
}

TEST(TreeBuildParallelTest, CancelledBudgetStopsParallelBuild) {
  const TransactionDatabase db = BigRandomDb(5);
  const PreparedMining prepared = PrepareMining(db, BigDbParams());
  CancellationToken cancel;
  cancel.Cancel();
  ResourceLimits limits;
  QueryBudget budget(limits, &cancel);
  budget.Probe();  // Latch the cancellation before the build starts.
  const TsPrefixTree tree =
      BuildRankedTree(db, prepared.items_by_rank, &budget, 4);
  EXPECT_TRUE(budget.hard_stopped());
  // The partial result carries fewer timestamps than a full build (the
  // workers observed the stop within one checkpoint interval).
  EXPECT_LE(tree.TimestampCount(), prepared.tree.TimestampCount());
  ExpectTrackedBytesNetZero(&budget);
}

TEST(TreeBuildParallelTest, MemoryBudgetTripsParallelBuild) {
  const TransactionDatabase db = BigRandomDb(13);
  const PreparedMining prepared = PrepareMining(db, BigDbParams());
  ResourceLimits limits;
  limits.memory_budget_bytes = 1;  // Any tracked growth trips it.
  QueryBudget budget(limits, nullptr);
  const TsPrefixTree tree =
      BuildRankedTree(db, prepared.items_by_rank, &budget, 4);
  EXPECT_TRUE(budget.hard_stopped());
  EXPECT_EQ(budget.stop_reason(), StopReason::kMemory);
  EXPECT_LT(tree.TimestampCount(), prepared.tree.TimestampCount());
  ExpectTrackedBytesNetZero(&budget);
}

TEST(TreeBuildParallelTest, DeadlineInsideAShardStopsTheBuild) {
  // The clock.skip failpoint expires the deadline at the first probe,
  // which lands inside a shard's insert loop (skewed data puts nearly
  // every transaction in shard 0).
  const TransactionDatabase db = SkewedDb(8);
  const std::vector<ItemId> order = SupportOrder(db);
  const size_t full = BuildRankedTree(db, order).TimestampCount();
  ResourceLimits limits;
  limits.timeout_ms = 60 * 1000;
  QueryBudget budget(limits, nullptr);
  FaultInjectionOptions inject;
  inject.site_filter = "clock.skip";
  inject.fire_on_nth = 1;
  size_t partial = 0;
  {
    ScopedFaultInjection armed(inject);
    partial = BuildRankedTree(db, order, &budget, 4).TimestampCount();
  }
  EXPECT_EQ(budget.stop_reason(), StopReason::kDeadline);
  EXPECT_LT(partial, full);
  ExpectTrackedBytesNetZero(&budget);
}

TEST(TreeBuildParallelTest, StoppedShardBuildIsDiscardedByTheMiner) {
  // The RP-list scan tracks no bytes, so a one-byte budget trips inside
  // the shard build; the partial tree must never be mined.
  const TransactionDatabase db = SkewedDb(10);
  RpParams params;
  params.period = 3;
  params.min_ps = 10;
  params.min_rec = 1;
  ResourceLimits limits;
  limits.memory_budget_bytes = 1;
  QueryBudget budget(limits, nullptr);
  RpGrowthOptions options;
  options.num_threads = 4;
  options.budget = &budget;
  const RpGrowthResult result = MineRecurringPatterns(db, params, options);
  EXPECT_EQ(budget.stop_reason(), StopReason::kMemory);
  EXPECT_TRUE(result.status.IsResourceExhausted());
  EXPECT_TRUE(result.truncated);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.stats.patterns_examined, 0u);
  EXPECT_GT(result.stats.tree_build_threads, 1u);
  ExpectTrackedBytesNetZero(&budget);
}

TEST(TreeBuildParallelTest, AllocFaultInAShardWorkerThrowsAndReleasesBytes) {
  const TransactionDatabase db = T10Db();
  const std::vector<ItemId> order = SupportOrder(db);
  const size_t nodes = BuildRankedTree(db, order).NodeCount();
  for (uint64_t nth : {uint64_t{1}, nodes / 3, nodes - 1}) {
    SCOPED_TRACE(::testing::Message() << "nth=" << nth);
    QueryBudget budget(ResourceLimits{}, nullptr);
    FaultInjectionOptions inject;
    inject.site_filter = "rptree.alloc";
    inject.fire_on_nth = nth;
    {
      ScopedFaultInjection armed(inject);
      EXPECT_THROW(BuildRankedTree(db, order, &budget, 4), std::bad_alloc);
    }
    ExpectTrackedBytesNetZero(&budget);
  }
}

TEST(TreeBuildParallelTest, AllocFaultInAShardSurfacesAsResourceExhausted) {
  auto snapshot = engine::DatasetSnapshot::Create(T10Db());
  engine::Query query;
  query.params.period = 200;
  query.params.min_ps = 3;
  query.params.min_rec = 1;
  engine::ExecOptions exec;
  exec.threads = 4;
  engine::QuerySession session(snapshot);
  FaultInjectionOptions inject;
  inject.site_filter = "rptree.alloc";
  inject.fire_on_nth = 500;
  ScopedFaultInjection armed(inject);
  Result<engine::QueryResult> run =
      session.Run(query, engine::BackendKind::kParallel, exec);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->status.IsResourceExhausted()) << run->status.ToString();
  EXPECT_TRUE(run->truncated);
  EXPECT_TRUE(run->patterns.empty());
}

// --- The per-subtree parallel preorder layout ------------------------------

/// Push-up accumulation of every node by definition: its own list, then
/// its children's accumulations in descending rank.
void ReferenceAccumulation(const TsPrefixTree::Node* node,
                           std::map<const TsPrefixTree::Node*, TimestampList>*
                               out) {
  std::vector<const TsPrefixTree::Node*> children;
  for (const TsPrefixTree::Node* c = node->first_child; c != nullptr;
       c = c->next_sibling) {
    children.push_back(c);
    ReferenceAccumulation(c, out);
  }
  std::sort(children.begin(), children.end(),
            [](const TsPrefixTree::Node* a, const TsPrefixTree::Node* b) {
              return a->rank > b->rank;
            });
  TimestampList acc = node->ts_list;
  for (const TsPrefixTree::Node* c : children) {
    acc.insert(acc.end(), (*out)[c].begin(), (*out)[c].end());
  }
  (*out)[node] = std::move(acc);
}

/// The layout at 1, 2, 4 and 8 workers equals the one-worker layout and
/// the definition, node by node and rank by rank. The layout gives each
/// worker at least 4096 nodes, so the trees are big enough for eight.
void ExpectLayoutsMatch(const TsPrefixTree& tree) {
  ASSERT_GE(tree.NodeCount(), 8u * 4096u);
  std::map<const TsPrefixTree::Node*, TimestampList> want;
  ReferenceAccumulation(tree.root(), &want);
  const TsPreorderLayout one(tree, 1);
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "layout workers=" << workers);
    const TsPreorderLayout layout(tree, workers);
    EXPECT_EQ(layout.ApproxBytes(), one.ApproxBytes());
    for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
      size_t rank_timestamps = 0;
      for (const TsPrefixTree::Node* n = tree.HeadOfRank(rank); n != nullptr;
           n = n->next_link) {
        const std::span<const Timestamp> span = layout.SpanOf(*n);
        const std::span<const Timestamp> reference = one.SpanOf(*n);
        ASSERT_EQ(TimestampList(span.begin(), span.end()),
                  TimestampList(reference.begin(), reference.end()))
            << "rank " << rank;
        ASSERT_EQ(TimestampList(span.begin(), span.end()), want.at(n))
            << "rank " << rank;
        rank_timestamps += span.size();
      }
      EXPECT_EQ(layout.RankTimestampCount(rank), rank_timestamps)
          << "rank " << rank;
      EXPECT_EQ(layout.RankTimestampCount(rank), one.RankTimestampCount(rank));
    }
  }
}

TEST(PreorderLayoutTest, ParallelLayoutMatchesOnBuiltTrees) {
  const TransactionDatabase t10 = T10Db(0.1);
  const TransactionDatabase skewed = SkewedDb(6, 20000);
  for (const TransactionDatabase* db : {&t10, &skewed}) {
    for (size_t build_workers : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "build workers=" << build_workers);
      ExpectLayoutsMatch(
          BuildRankedTree(*db, SupportOrder(*db), nullptr, build_workers));
    }
  }
}

TEST(PreorderLayoutTest, ParallelLayoutMatchesOnClones) {
  const TransactionDatabase db = T10Db(0.1);
  const TsPrefixTree tree = BuildRankedTree(db, SupportOrder(db), nullptr, 4);
  ExpectLayoutsMatch(tree.Clone());
}

TEST(PreorderLayoutTest, ParallelLayoutMatchesAfterRetireBefore) {
  // The windowed miner's sub-mines lay out trees that RetireBefore swept.
  const TransactionDatabase db = SkewedDb(9, 40000);
  TsPrefixTree tree = BuildRankedTree(db, SupportOrder(db), nullptr, 4);
  const TsPrefixTree::RetireStats retired = tree.RetireBefore(10000);
  ASSERT_GT(retired.nodes_retired, 0u);
  ExpectLayoutsMatch(tree);
}

TEST(PreorderLayoutTest, EmptyTreeHasAnEmptyLayout) {
  const TsPrefixTree tree(std::vector<ItemId>{0, 1});
  const TsPreorderLayout layout(tree, 4);
  EXPECT_EQ(layout.RankTimestampCount(0), 0u);
  EXPECT_EQ(layout.RankTimestampCount(1), 0u);
}

}  // namespace
}  // namespace rpm
