// Parallel RP-growth must be indistinguishable from the sequential miner:
// identical pattern sets, identical canonical order, identical
// thread-invariant stats counters — for every thread count, on every
// dataset family. Also covers sink serialization and the projection
// decomposition itself.

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/projection.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/thread_pool.h"
#include "rpm/core/ts_merge.h"
#include "rpm/gen/paper_datasets.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::PaperExampleDb;
using ::rpm::testing::PaperExampleParams;

constexpr size_t kThreadCounts[] = {2, 4, 8};

/// Asserts the parallel run at `threads` equals `sequential` bit-for-bit:
/// patterns, order, and the counters that must not depend on scheduling.
void ExpectMatchesSequential(const TransactionDatabase& db,
                             const RpParams& params,
                             const RpGrowthResult& sequential,
                             size_t threads,
                             const RpGrowthOptions& base = {}) {
  RpGrowthOptions options = base;
  options.num_threads = threads;
  RpGrowthResult parallel = MineRecurringPatterns(db, params, options);
  ASSERT_EQ(parallel.patterns.size(), sequential.patterns.size())
      << "threads=" << threads;
  for (size_t i = 0; i < sequential.patterns.size(); ++i) {
    EXPECT_EQ(parallel.patterns[i], sequential.patterns[i])
        << "threads=" << threads << " index=" << i << "\nparallel: "
        << parallel.patterns[i].ToString()
        << "\nsequential: " << sequential.patterns[i].ToString();
  }
  EXPECT_EQ(parallel.stats.num_items, sequential.stats.num_items);
  EXPECT_EQ(parallel.stats.num_candidate_items,
            sequential.stats.num_candidate_items);
  EXPECT_EQ(parallel.stats.initial_tree_nodes,
            sequential.stats.initial_tree_nodes);
  EXPECT_EQ(parallel.stats.conditional_trees,
            sequential.stats.conditional_trees)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.patterns_examined,
            sequential.stats.patterns_examined)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.patterns_emitted,
            sequential.stats.patterns_emitted)
      << "threads=" << threads;
  // The merge-kernel counters are schedule-invariant: the parallel miner
  // performs exactly the sequential miner's merges, only distributed over
  // workers (the top-level ts_beta merges move into the projection pass,
  // and each projection's conditional recursion is identical). Only
  // scratch_bytes_peak may differ — it is a max over per-worker pools.
  EXPECT_EQ(parallel.stats.merge_invocations,
            sequential.stats.merge_invocations)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.runs_merged, sequential.stats.runs_merged)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.timestamps_merged,
            sequential.stats.timestamps_merged)
      << "threads=" << threads;
}

TEST(RpGrowthParallelTest, PaperExampleAllThreadCounts) {
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  RpGrowthResult sequential = MineRecurringPatterns(db, params);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, PaperExampleFullThresholdGrid) {
  // The same grid paper_grid_test checks against the oracle, here checked
  // parallel-vs-sequential.
  TransactionDatabase db = PaperExampleDb();
  for (Timestamp per : {1, 2, 3, 4, 5, 7, 13, 20}) {
    for (uint64_t min_ps : {1u, 2u, 3u, 4u, 6u, 12u}) {
      for (uint64_t min_rec : {1u, 2u, 3u, 4u}) {
        RpParams params;
        params.period = per;
        params.min_ps = min_ps;
        params.min_rec = min_rec;
        RpGrowthResult sequential = MineRecurringPatterns(db, params);
        for (size_t threads : kThreadCounts) {
          ExpectMatchesSequential(db, params, sequential, threads);
        }
      }
    }
  }
}

TEST(RpGrowthParallelTest, QuestMini) {
  TransactionDatabase db = gen::MakeT10I4D100K(0.01, 99);
  RpParams params;
  params.period = 30;
  params.min_ps = 5;
  params.min_rec = 2;
  RpGrowthResult sequential = MineRecurringPatterns(db, params);
  EXPECT_GT(sequential.patterns.size(), 0u);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, ClickstreamMini) {
  gen::GeneratedClickstream shop = gen::MakeShop14(0.01, 77);
  RpParams params;
  params.period = 120;
  params.min_ps = 20;
  params.min_rec = 1;
  RpGrowthResult sequential = MineRecurringPatterns(shop.db, params);
  EXPECT_GT(sequential.patterns.size(), 0u);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(shop.db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, HashtagMini) {
  gen::GeneratedHashtagStream twitter = gen::MakeTwitter(0.01, 88);
  RpParams params;
  params.period = 60;
  params.min_ps = 25;
  params.min_rec = 1;
  RpGrowthResult sequential = MineRecurringPatterns(twitter.db, params);
  EXPECT_GT(sequential.patterns.size(), 0u);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(twitter.db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, SupportOnlyPruningMatchesToo) {
  gen::GeneratedClickstream shop = gen::MakeShop14(0.01, 9);
  RpParams params;
  params.period = 120;
  params.min_ps = 20;
  params.min_rec = 1;
  RpGrowthOptions naive;
  naive.pruning = PruningMode::kSupportOnly;
  RpGrowthResult sequential = MineRecurringPatterns(shop.db, params, naive);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(shop.db, params, sequential, threads, naive);
  }
}

TEST(RpGrowthParallelTest, MaxPatternLengthRespected) {
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  RpGrowthOptions capped;
  capped.max_pattern_length = 1;
  RpGrowthResult sequential = MineRecurringPatterns(db, params, capped);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(db, params, sequential, threads, capped);
  }
}

TEST(RpGrowthParallelTest, ZeroMeansHardwareConcurrency) {
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  RpGrowthResult sequential = MineRecurringPatterns(db, params);
  ExpectMatchesSequential(db, params, sequential, /*threads=*/0);
}

TEST(RpGrowthParallelTest, SinkSeesEveryPatternExactlyOnce) {
  gen::GeneratedClickstream shop = gen::MakeShop14(0.01, 11);
  RpParams params;
  params.period = 120;
  params.min_ps = 20;
  params.min_rec = 1;
  RpGrowthResult sequential = MineRecurringPatterns(shop.db, params);

  RpGrowthOptions options;
  options.num_threads = 4;
  options.store_patterns = false;
  std::mutex mutex;  // The miner already serializes; guards the vector
                     // against future regressions without masking races in
                     // delivery itself being concurrent.
  std::vector<RecurringPattern> delivered;
  options.sink = [&](const RecurringPattern& p) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back(p);
  };
  RpGrowthResult parallel = MineRecurringPatterns(shop.db, params, options);
  EXPECT_TRUE(parallel.patterns.empty());  // store_patterns=false.
  EXPECT_EQ(parallel.stats.patterns_emitted, delivered.size());
  SortPatternsCanonically(&delivered);
  ASSERT_EQ(delivered.size(), sequential.patterns.size());
  for (size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], sequential.patterns[i]);
  }
}

TEST(RpGrowthParallelTest, StatsTimersConsistent) {
  gen::GeneratedClickstream shop = gen::MakeShop14(0.01, 12);
  RpParams params;
  params.period = 120;
  params.min_ps = 20;
  params.min_rec = 1;
  RpGrowthOptions options;
  options.num_threads = 4;
  RpGrowthResult result = MineRecurringPatterns(shop.db, params, options);
  EXPECT_GE(result.stats.threads_used, 1u);
  EXPECT_LE(result.stats.threads_used, 4u);
  EXPECT_GE(result.stats.mine_cpu_seconds, 0.0);
  EXPECT_GE(result.stats.total_seconds, 0.0);
  // total_seconds is wall clock, not a phase sum: it must cover the
  // mining phase's wall time but not necessarily the summed CPU time.
  EXPECT_GE(result.stats.total_seconds, result.stats.mine_seconds);

  RpGrowthResult sequential = MineRecurringPatterns(shop.db, params);
  EXPECT_EQ(sequential.stats.threads_used, 1u);
  EXPECT_DOUBLE_EQ(sequential.stats.mine_cpu_seconds,
                   sequential.stats.mine_seconds);
}

TEST(ProjectionTest, ProjectionsCoverEveryCandidateOnce) {
  // Decompose the paper example's tree by hand and check the projections
  // partition TS by item: TS^{item} of each projection equals the item's
  // full timestamp list.
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  RpGrowthResult reference = MineRecurringPatterns(db, params);

  RpList list = BuildRpList(db, params);
  std::vector<ItemId> items_by_rank;
  for (const RpListEntry& e : list.candidates()) {
    items_by_rank.push_back(e.item);
  }
  TsPrefixTree tree(items_by_rank);
  std::vector<uint32_t> ranks;
  for (const Transaction& tr : db.transactions()) {
    ranks.clear();
    for (ItemId item : tr.items) {
      if (list.RankOf(item) != kNotCandidate) {
        ranks.push_back(list.RankOf(item));
      }
    }
    std::sort(ranks.begin(), ranks.end());
    tree.InsertTransaction(ranks, tr.ts);
  }

  std::vector<SuffixProjection> projections = ProjectSuffixItems(&tree);
  ASSERT_EQ(projections.size(), items_by_rank.size());
  EXPECT_TRUE(tree.empty());  // Fully consumed.
  std::set<uint32_t> seen_ranks;
  for (const SuffixProjection& projection : projections) {
    EXPECT_TRUE(seen_ranks.insert(projection.rank).second);
    // TS^{item} must match the item's occurrences in the database.
    TimestampList expected;
    ItemId item = items_by_rank[projection.rank];
    for (const Transaction& tr : db.transactions()) {
      if (std::binary_search(tr.items.begin(), tr.items.end(), item)) {
        expected.push_back(tr.ts);
      }
    }
    EXPECT_EQ(projection.ts_beta, expected)
        << "item rank " << projection.rank;
    // Paths only reference strictly shallower ranks, ascending.
    for (const ProjectedPath& path : projection.paths) {
      const std::span<const uint32_t> ranks = projection.RanksOf(path);
      EXPECT_TRUE(std::is_sorted(ranks.begin(), ranks.end()));
      for (uint32_t r : ranks) EXPECT_LT(r, projection.rank);
    }
  }
  // And the reference mining result was unaffected by us re-deriving it.
  EXPECT_EQ(reference.stats.num_candidate_items, projections.size());
}

/// One rank's conditional pattern base as the consuming sweep collects
/// it: the reference ProjectRank must reproduce.
struct SweptProjection {
  uint32_t rank = 0;
  std::vector<std::vector<uint32_t>> path_ranks;
  std::vector<TimestampList> path_ts;
  TimestampList ts_beta;
};

/// The push-up sweep sequential mining performs (collect a rank's nodes,
/// PushUpAndRemove, next rank), spelled out over the tree's public API.
std::vector<SweptProjection> ConsumingSweep(TsPrefixTree* tree,
                                            MergeCounters* counters) {
  std::vector<SweptProjection> out;
  MergeScratch scratch;
  std::vector<TsRun> runs;
  for (size_t rank = tree->num_ranks(); rank-- > 0;) {
    SweptProjection p;
    p.rank = static_cast<uint32_t>(rank);
    tree->ForEachNodeOfRank(
        rank, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
          if (ts.empty() && path.empty()) return;
          p.path_ranks.push_back(path);
          p.path_ts.push_back(ts);
        });
    tree->PushUpAndRemove(rank);
    runs.clear();
    for (const TimestampList& ts : p.path_ts) AppendSortedRuns(ts, &runs);
    if (runs.empty()) continue;
    MergeSortedRuns(runs.data(), runs.size(), &p.ts_beta, &scratch, counters);
    out.push_back(std::move(p));
  }
  return out;
}

void ExpectSameProjection(const SweptProjection& want,
                          const SuffixProjection& got) {
  EXPECT_EQ(got.rank, want.rank);
  ASSERT_EQ(got.paths.size(), want.path_ranks.size()) << "rank " << want.rank;
  for (size_t i = 0; i < got.paths.size(); ++i) {
    const std::span<const uint32_t> ranks = got.RanksOf(got.paths[i]);
    const std::span<const Timestamp> ts = got.TsOf(got.paths[i]);
    EXPECT_EQ(std::vector<uint32_t>(ranks.begin(), ranks.end()),
              want.path_ranks[i])
        << "rank " << want.rank << " path " << i;
    // Element for element, not as a set: the run structure is what the
    // merge counters see.
    EXPECT_EQ(TimestampList(ts.begin(), ts.end()), want.path_ts[i])
        << "rank " << want.rank << " path " << i;
  }
  EXPECT_EQ(got.ts_beta, want.ts_beta) << "rank " << want.rank;
}

/// ProjectRank over a const tree must equal the consuming sweep for every
/// rank — paths, ts-lists, TS^item and merge counters — on trees built at
/// one and at four build threads (the fold reorders sibling lists; the
/// layout must not care), and must leave the tree untouched. The
/// ProjectSuffixItems wrapper must agree too.
void ExpectProjectRankMatchesSweep(const TransactionDatabase& db,
                                   const RpParams& params) {
  const PreparedMining prepared = PrepareMining(db, params);
  for (size_t build_threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "build_threads=" << build_threads);
    const TsPrefixTree tree = BuildRankedTree(db, prepared.items_by_rank,
                                              nullptr, build_threads);
    const size_t nodes = tree.NodeCount();
    const size_t timestamps = tree.TimestampCount();
    TsPrefixTree swept = tree.Clone();
    MergeCounters want_counters;
    const std::vector<SweptProjection> want =
        ConsumingSweep(&swept, &want_counters);
    ASSERT_FALSE(want.empty());

    const TsPreorderLayout layout(tree);
    ProjectionScratch scratch;
    MergeCounters got_counters;
    SuffixProjection got;  // Reused across ranks, as a worker does.
    size_t next = 0;
    for (size_t rank = tree.num_ranks(); rank-- > 0;) {
      if (!ProjectRank(tree, layout, rank, &got, &scratch, &got_counters)) {
        EXPECT_EQ(layout.RankTimestampCount(rank), 0u);
        continue;
      }
      ASSERT_LT(next, want.size());
      ExpectSameProjection(want[next++], got);
      EXPECT_EQ(layout.RankTimestampCount(rank), got.ts_beta.size());
    }
    EXPECT_EQ(next, want.size());
    EXPECT_EQ(got_counters.merge_invocations, want_counters.merge_invocations);
    EXPECT_EQ(got_counters.runs_merged, want_counters.runs_merged);
    EXPECT_EQ(got_counters.timestamps_merged,
              want_counters.timestamps_merged);
    EXPECT_EQ(tree.NodeCount(), nodes);
    EXPECT_EQ(tree.TimestampCount(), timestamps);

    TsPrefixTree wrapped = tree.Clone();
    const std::vector<SuffixProjection> projections =
        ProjectSuffixItems(&wrapped);
    EXPECT_TRUE(wrapped.empty());
    ASSERT_EQ(projections.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectSameProjection(want[i], projections[i]);
    }
  }
}

TEST(ProjectionTest, ProjectRankMatchesConsumingSweepOnPaperExample) {
  ExpectProjectRankMatchesSweep(PaperExampleDb(), PaperExampleParams());
}

TEST(ProjectionTest, ProjectRankMatchesConsumingSweepOnQuestMini) {
  RpParams params;
  params.period = 30;
  params.min_ps = 5;
  params.min_rec = 2;
  ExpectProjectRankMatchesSweep(gen::MakeT10I4D100K(0.01, 99), params);
}

TEST(ProjectionTest, ProjectRankMatchesConsumingSweepOnClickstreamMini) {
  RpParams params;
  params.period = 120;
  params.min_ps = 20;
  params.min_rec = 1;
  ExpectProjectRankMatchesSweep(gen::MakeShop14(0.01, 77).db, params);
}

TEST(ProjectionTest, ProjectRankMatchesConsumingSweepOnHashtagMini) {
  RpParams params;
  params.period = 60;
  params.min_ps = 25;
  params.min_rec = 1;
  ExpectProjectRankMatchesSweep(gen::MakeTwitter(0.01, 88).db, params);
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexOnce) {
  for (size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    constexpr size_t kItems = 1000;
    std::vector<std::atomic<int>> visits(kItems);
    ParallelFor(kItems, workers, [&](size_t worker, size_t i) {
      (void)worker;
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
  std::atomic<size_t> max_worker{0};
  ParallelFor(256, 4, [&](size_t worker, size_t i) {
    (void)i;
    size_t seen = max_worker.load();
    while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
    }
  });
  EXPECT_LT(max_worker.load(), 4u);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
  EXPECT_GE(ResolveThreadCount(0), 1u);  // Hardware concurrency, >= 1.
}

}  // namespace
}  // namespace rpm
