// Query-engine tests: snapshot immutability/indexes, planner cache-reuse
// soundness (loose->strict bit-identity), executor backends vs fresh core
// runs, top-k integration and concurrent session use.
//
// The load-bearing property throughout: running a query through a session
// — whatever the backend, whatever was cached — is observationally pure.
// Patterns, supports and interval lists must be bit-identical to a fresh
// MineRecurringPatterns call on the same (db, params).

#include "rpm/engine/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "rpm/core/pattern_filters.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/top_k.h"
#include "rpm/engine/dataset_snapshot.h"
#include "rpm/engine/executor.h"
#include "rpm/engine/query.h"
#include "rpm/engine/query_planner.h"
#include "test_util.h"

namespace rpm::engine {
namespace {

using ::rpm::testing::MakeRandomDb;
using ::rpm::testing::PaperExampleDb;
using ::rpm::testing::PaperExampleParams;
using ::rpm::testing::PaperExamplePatterns;
using ::rpm::testing::RandomDbSpec;

Query MakeQuery(const RpParams& params) {
  Query q;
  q.params = params;
  return q;
}

/// The schedule-invariant stats counters (DESIGN.md §4a) as a tuple-ish
/// vector so tests can assert all nine at once.
std::vector<size_t> InvariantCounters(const RpGrowthStats& s) {
  return {s.num_items,         s.num_candidate_items, s.initial_tree_nodes,
          s.conditional_trees, s.patterns_examined,   s.patterns_emitted,
          s.merge_invocations, s.runs_merged,         s.timestamps_merged};
}

// --- DatasetSnapshot --------------------------------------------------------

TEST(DatasetSnapshotTest, WrapsDatabaseAndPrecomputesItemIndexes) {
  TransactionDatabase db = PaperExampleDb();
  auto snapshot = DatasetSnapshot::Create(db);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->size(), db.size());
  EXPECT_EQ(snapshot->start_ts(), db.start_ts());
  EXPECT_EQ(snapshot->end_ts(), db.end_ts());
  EXPECT_EQ(snapshot->ItemUniverseSize(), db.ItemUniverseSize());

  uint64_t total = 0;
  for (ItemId item = 0; item < db.ItemUniverseSize(); ++item) {
    TimestampList want = db.TimestampsOf(Itemset{item});
    EXPECT_EQ(snapshot->ItemTimestamps(item), want) << "item " << item;
    EXPECT_EQ(snapshot->ItemSupport(item), want.size()) << "item " << item;
    total += snapshot->ItemSupport(item);
  }
  EXPECT_EQ(snapshot->TotalItemOccurrences(), total);
  // Out-of-universe items are empty, not UB.
  EXPECT_TRUE(snapshot->ItemTimestamps(10'000).empty());
  EXPECT_EQ(snapshot->ItemSupport(10'000), 0u);
}

TEST(DatasetSnapshotTest, EmptyDatabaseSnapshot) {
  auto snapshot = DatasetSnapshot::Create(TransactionDatabase{});
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->empty());
  EXPECT_EQ(snapshot->TotalItemOccurrences(), 0u);
}

// --- QueryPlanner cache semantics ------------------------------------------

TEST(QueryPlannerTest, ExactRepeatHitsCache) {
  QueryPlanner planner(DatasetSnapshot::Create(PaperExampleDb()));
  RpParams params = PaperExampleParams();

  QueryPlanner::Plan first = planner.PlanFor(params);
  EXPECT_FALSE(first.reused);
  QueryPlanner::Plan second = planner.PlanFor(params);
  EXPECT_TRUE(second.reused);
  EXPECT_EQ(planner.tree_builds(), 1u);
  // Same underlying build, not a copy.
  EXPECT_EQ(first.prepared.get(), second.prepared.get());
}

TEST(QueryPlannerTest, LooserBuildServesStricterQuery) {
  QueryPlanner planner(DatasetSnapshot::Create(PaperExampleDb()));
  RpParams loose = PaperExampleParams();
  RpParams strict = loose;
  strict.min_ps += 1;
  strict.min_rec += 1;

  EXPECT_FALSE(planner.PlanFor(loose).reused);
  QueryPlanner::Plan plan = planner.PlanFor(strict);
  EXPECT_TRUE(plan.reused);
  EXPECT_EQ(plan.prepared->params.min_ps, loose.min_ps);
  EXPECT_EQ(planner.tree_builds(), 1u);
}

TEST(QueryPlannerTest, StricterBuildCannotServeLooserQuery) {
  QueryPlanner planner(DatasetSnapshot::Create(PaperExampleDb()));
  RpParams strict = PaperExampleParams();
  RpParams loose = strict;
  loose.min_ps -= 1;

  EXPECT_FALSE(planner.PlanFor(strict).reused);
  EXPECT_FALSE(planner.PlanFor(loose).reused);
  EXPECT_EQ(planner.tree_builds(), 2u);
  // The looser build now serves both parameter points.
  EXPECT_TRUE(planner.PlanFor(strict).reused);
  EXPECT_TRUE(planner.PlanFor(loose).reused);
  EXPECT_EQ(planner.tree_builds(), 2u);
}

TEST(QueryPlannerTest, DifferentPeriodOrToleranceNeverReuses) {
  QueryPlanner planner(DatasetSnapshot::Create(PaperExampleDb()));
  RpParams base = PaperExampleParams();
  EXPECT_FALSE(planner.PlanFor(base).reused);

  RpParams other_period = base;
  other_period.period = base.period + 1;
  EXPECT_FALSE(planner.PlanFor(other_period).reused);

  RpParams tolerant = base;
  tolerant.max_gap_violations = 1;
  EXPECT_FALSE(planner.PlanFor(tolerant).reused);
  EXPECT_EQ(planner.tree_builds(), 3u);
}

TEST(QueryPlannerTest, EvictionKeepsPlannerCorrect) {
  QueryPlanner planner(DatasetSnapshot::Create(PaperExampleDb()));
  RpParams params = PaperExampleParams();
  // Overflow the cache with distinct periods; entries are evicted FIFO
  // but pinned shared_ptrs stay valid and correctness is unaffected.
  QueryPlanner::Plan pinned = planner.PlanFor(params);
  for (int64_t per = 3; per < 3 + 2 * (int64_t)QueryPlanner::kMaxCacheEntries;
       ++per) {
    RpParams p = params;
    p.period = per;
    EXPECT_FALSE(planner.PlanFor(p).reused);
  }
  EXPECT_LE(planner.cache_size(), QueryPlanner::kMaxCacheEntries);
  // The original entry was evicted, so this rebuilds — and still mines
  // the exact Table 2 result set.
  QueryPlanner::Plan replan = planner.PlanFor(params);
  EXPECT_FALSE(replan.reused);
  RpGrowthResult mined = MineFromPrepared(
      *replan.prepared, replan.prepared->tree.Clone(), params);
  EXPECT_EQ(mined.patterns, PaperExamplePatterns());
  // The pinned pre-eviction build still mines correctly too.
  RpGrowthResult pinned_mined = MineFromPrepared(
      *pinned.prepared, pinned.prepared->tree.Clone(), params);
  EXPECT_EQ(pinned_mined.patterns, PaperExamplePatterns());
}

// --- Executor backends vs fresh core runs ----------------------------------

TEST(ExecutorTest, SequentialBackendIsBitIdenticalToFreshRun) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    TransactionDatabase db = MakeRandomDb(RandomDbSpec{}, seed);
    RpParams params = PaperExampleParams();
    RpGrowthResult fresh = MineRecurringPatterns(db, params);

    QuerySession session(DatasetSnapshot::Create(db));
    Result<QueryResult> got = session.Run(MakeQuery(params));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->patterns, fresh.patterns) << "seed " << seed;
    EXPECT_EQ(InvariantCounters(got->stats), InvariantCounters(fresh.stats))
        << "seed " << seed;
    EXPECT_EQ(got->backend, "sequential");
    EXPECT_FALSE(got->tree_reused);
    EXPECT_EQ(got->session_tree_builds, 1u);
  }
}

TEST(ExecutorTest, ParallelBackendMatchesSequentialAndReusesTree) {
  TransactionDatabase db = MakeRandomDb(RandomDbSpec{}, 33);
  RpParams params = PaperExampleParams();
  QuerySession session(DatasetSnapshot::Create(db));

  Result<QueryResult> seq = session.Run(MakeQuery(params));
  ASSERT_TRUE(seq.ok());
  ExecOptions exec;
  exec.threads = 4;
  Result<QueryResult> par =
      session.Run(MakeQuery(params), BackendKind::kParallel, exec);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(par->patterns, seq->patterns);
  EXPECT_EQ(InvariantCounters(par->stats), InvariantCounters(seq->stats));
  EXPECT_EQ(par->backend, "parallel");
  EXPECT_TRUE(par->tree_reused);
  EXPECT_EQ(par->session_tree_builds, 1u);
  EXPECT_GE(par->stats.threads_used, 2u);
}

TEST(ExecutorTest, WindowedBackendMatchesSequentialWithCoveringWindow) {
  // A window wider than the whole snapshot never expires anything, so the
  // final committed set must equal the sequential result, for any delta.
  for (uint64_t seed = 51; seed <= 53; ++seed) {
    TransactionDatabase db = MakeRandomDb(RandomDbSpec{}, seed);
    RpParams params = PaperExampleParams();
    RpGrowthResult fresh = MineRecurringPatterns(db, params);

    QuerySession session(DatasetSnapshot::Create(db));
    for (uint64_t delta : {uint64_t{0}, uint64_t{1}, uint64_t{7}}) {
      Query q = MakeQuery(params);
      q.window = std::numeric_limits<Timestamp>::max();
      q.delta = delta;
      Result<QueryResult> got = session.Run(q, BackendKind::kWindowed);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->patterns, fresh.patterns)
          << "seed " << seed << " delta " << delta;
      EXPECT_EQ(got->backend, "windowed");
      EXPECT_FALSE(got->tree_reused);
      const uint64_t expected_deltas =
          delta == 0 ? 1 : (db.size() + delta - 1) / delta;
      EXPECT_EQ(got->windowed.deltas_applied, expected_deltas);
      EXPECT_EQ(got->windowed.transactions_expired, 0u);
    }
  }
}

TEST(ExecutorTest, WindowedSinkReceivesPerDeltaAdditions) {
  // With a covering window nothing is ever removed, so the union of the
  // per-delta added sets is exactly the final pattern set.
  QuerySession session(DatasetSnapshot::Create(PaperExampleDb()));
  Query q = MakeQuery(PaperExampleParams());
  q.window = 1000;
  q.delta = 3;
  std::vector<RecurringPattern> sunk;
  q.sink = [&](const RecurringPattern& p) { sunk.push_back(p); };
  Result<QueryResult> got = session.Run(q, BackendKind::kWindowed);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  SortPatternsCanonically(&sunk);
  EXPECT_EQ(sunk, got->patterns);
  EXPECT_EQ(got->patterns, PaperExamplePatterns());
}

TEST(ExecutorTest, WindowedRejectsOutOfModelQueries) {
  QuerySession session(DatasetSnapshot::Create(PaperExampleDb()));

  // No window at all.
  EXPECT_FALSE(
      session.Run(MakeQuery(PaperExampleParams()), BackendKind::kWindowed)
          .ok());

  Query tolerant = MakeQuery(PaperExampleParams());
  tolerant.window = 1000;
  tolerant.params.max_gap_violations = 1;
  EXPECT_FALSE(session.Run(tolerant, BackendKind::kWindowed).ok());

  Query topk = MakeQuery(PaperExampleParams());
  topk.window = 1000;
  topk.top_k = 3;
  EXPECT_FALSE(session.Run(topk, BackendKind::kWindowed).ok());

  Query capped = MakeQuery(PaperExampleParams());
  capped.window = 1000;
  capped.limits.max_patterns = 5;
  EXPECT_FALSE(session.Run(capped, BackendKind::kWindowed).ok());

  // Other backends ignore window/delta; a windowed query on them is fine.
  Query windowed = MakeQuery(PaperExampleParams());
  windowed.window = 1000;
  windowed.delta = 2;
  EXPECT_TRUE(session.Run(windowed, BackendKind::kSequential).ok());
}

TEST(ExecutorTest, ParseBackendRoundTripsWindowed) {
  Result<BackendKind> parsed = ParseBackend("windowed");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, BackendKind::kWindowed);
  EXPECT_STREQ(BackendName(BackendKind::kWindowed), "windowed");
  EXPECT_FALSE(ParseBackend("windows").ok());
}

TEST(ExecutorTest, WindowedCancellationYieldsCommittedPrefix) {
  // Cancel before the run: the windowed executor must surface the
  // cancellation with zero committed deltas, deterministically.
  QuerySession session(DatasetSnapshot::Create(PaperExampleDb()));
  Query q = MakeQuery(PaperExampleParams());
  q.window = 1000;
  q.delta = 4;
  CancellationToken cancel;
  cancel.Cancel();
  q.cancel = &cancel;
  Result<QueryResult> got = session.Run(q, BackendKind::kWindowed);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->status.IsCancelled()) << got->status.ToString();
  EXPECT_TRUE(got->truncated);
  EXPECT_TRUE(got->patterns.empty());
  EXPECT_EQ(got->windowed.deltas_applied, 0u);
}

TEST(ExecutorTest, PaperExampleThroughEveryBackend) {
  QuerySession session(DatasetSnapshot::Create(PaperExampleDb()));
  Query q = MakeQuery(PaperExampleParams());
  // A window wider than the example's 14 time units expires nothing.
  q.window = 100;
  for (BackendKind kind : {BackendKind::kSequential, BackendKind::kParallel,
                           BackendKind::kWindowed}) {
    Result<QueryResult> got = session.Run(q, kind);
    ASSERT_TRUE(got.ok()) << BackendName(kind);
    EXPECT_EQ(got->patterns, PaperExamplePatterns()) << BackendName(kind);
  }
  // One snapshot, one tree build for the sequential+parallel pair; the
  // windowed backend keeps its own incremental state.
  EXPECT_EQ(session.tree_builds(), 1u);
}

// --- Loose->strict reuse purity --------------------------------------------

TEST(EngineReuseTest, LooseToStrictReuseIsBitIdenticalToFreshRuns) {
  for (uint64_t seed = 61; seed <= 64; ++seed) {
    RandomDbSpec spec;
    spec.num_items = 8;
    spec.num_timestamps = 120;
    TransactionDatabase db = MakeRandomDb(spec, seed);
    RpParams loose = PaperExampleParams();

    QuerySession session(DatasetSnapshot::Create(db));
    ASSERT_TRUE(session.Run(MakeQuery(loose)).ok());

    // A grid of strictly-tighter parameter points, all served by the one
    // loose build. Each must match a fresh standalone run bit-for-bit.
    for (uint64_t dps : {0u, 1u, 2u}) {
      for (uint64_t drec : {0u, 1u, 2u}) {
        RpParams strict = loose;
        strict.min_ps += dps;
        strict.min_rec += drec;
        Result<QueryResult> got = session.Run(MakeQuery(strict));
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->tree_reused)
            << "seed " << seed << " +ps " << dps << " +rec " << drec;
        EXPECT_EQ(got->session_tree_builds, 1u);
        RpGrowthResult fresh = MineRecurringPatterns(db, strict);
        EXPECT_EQ(got->patterns, fresh.patterns)
            << "seed " << seed << " +ps " << dps << " +rec " << drec;
      }
    }
    EXPECT_EQ(session.tree_builds(), 1u);
  }
}

TEST(EngineReuseTest, ReuseUnderToleranceIsBitIdentical) {
  RandomDbSpec spec;
  spec.num_timestamps = 90;
  TransactionDatabase db = MakeRandomDb(spec, 77);
  RpParams loose = PaperExampleParams();
  loose.max_gap_violations = 1;

  QuerySession session(DatasetSnapshot::Create(db));
  ASSERT_TRUE(session.Run(MakeQuery(loose)).ok());
  RpParams strict = loose;
  strict.min_rec += 1;
  Result<QueryResult> got = session.Run(MakeQuery(strict));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->tree_reused);
  EXPECT_EQ(got->patterns, MineRecurringPatterns(db, strict).patterns);
}

TEST(EngineReuseTest, ClosedAndMaximalFiltersApplyAfterReuse) {
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  QuerySession session(DatasetSnapshot::Create(db));
  ASSERT_TRUE(session.Run(MakeQuery(params)).ok());

  Query closed = MakeQuery(params);
  closed.closed = true;
  Result<QueryResult> got = session.Run(closed);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->tree_reused);
  EXPECT_EQ(got->patterns,
            FilterClosed(db, MineRecurringPatterns(db, params).patterns));

  Query maximal = MakeQuery(params);
  maximal.maximal = true;
  Result<QueryResult> got_max = session.Run(maximal);
  ASSERT_TRUE(got_max.ok());
  EXPECT_EQ(got_max->patterns,
            FilterMaximal(MineRecurringPatterns(db, params).patterns));
}

// --- Top-k through the engine ----------------------------------------------

TEST(EngineTopKTest, MatchesCoreTopKAndReusesFloorTree) {
  for (uint64_t seed = 81; seed <= 83; ++seed) {
    TransactionDatabase db = MakeRandomDb(RandomDbSpec{}, seed);
    TopKResult core = MineTopKByRecurrence(db, /*period=*/2, /*min_ps=*/3,
                                           /*k=*/5);

    QuerySession session(DatasetSnapshot::Create(db));
    Query q;
    q.params.period = 2;
    q.params.min_ps = 3;
    q.top_k = 5;
    Result<QueryResult> got = session.Run(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->patterns, core.patterns) << "seed " << seed;
    EXPECT_EQ(got->top_k_final_min_rec, core.final_min_rec) << "seed " << seed;
    // Every descent round mined a clone of the single floor-threshold
    // build — one build regardless of round count.
    EXPECT_EQ(session.tree_builds(), 1u);

    // A second top-k query reuses the floor tree outright.
    Result<QueryResult> again = session.Run(q);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->tree_reused);
    EXPECT_EQ(again->patterns, core.patterns);
    EXPECT_EQ(session.tree_builds(), 1u);
  }
}

TEST(EngineTopKTest, FloorTreeAlsoServesPlainQueries) {
  TransactionDatabase db = PaperExampleDb();
  QuerySession session(DatasetSnapshot::Create(db));
  Query topk;
  topk.params.period = 2;
  topk.params.min_ps = 3;
  topk.top_k = 4;
  ASSERT_TRUE(session.Run(topk).ok());

  // The top-k floor build (minRec=1) is the loosest possible for this
  // (per, minPS), so any plain query at these params reuses it.
  Result<QueryResult> plain = session.Run(MakeQuery(PaperExampleParams()));
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->tree_reused);
  EXPECT_EQ(plain->patterns, PaperExamplePatterns());
  EXPECT_EQ(session.tree_builds(), 1u);
}

TEST(EngineTopKTest, EmptyDatabaseShortCircuits) {
  QuerySession session(DatasetSnapshot::Create(TransactionDatabase{}));
  Query q;
  q.params.period = 2;
  q.params.min_ps = 3;
  q.top_k = 5;
  Result<QueryResult> got = session.Run(q);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->patterns.empty());
  EXPECT_EQ(got->top_k_rounds, 0u);
  EXPECT_EQ(got->top_k_final_min_rec, 0u);
  EXPECT_EQ(session.tree_builds(), 0u);
}

// --- Query validation and sinks --------------------------------------------

TEST(EngineQueryTest, ValidateRejectsIncoherentCombinations) {
  Query q = MakeQuery(PaperExampleParams());
  EXPECT_TRUE(q.Validate().ok());
  q.store_patterns = false;
  EXPECT_TRUE(q.Validate().ok());
  q.closed = true;
  EXPECT_FALSE(q.Validate().ok());
  q.closed = false;
  q.top_k = 3;
  EXPECT_FALSE(q.Validate().ok());

  Query bad_params;
  bad_params.params.period = 0;
  EXPECT_FALSE(bad_params.Validate().ok());
}

TEST(EngineQueryTest, SinkReceivesEveryPatternWithoutStorage) {
  TransactionDatabase db = PaperExampleDb();
  QuerySession session(DatasetSnapshot::Create(db));
  std::vector<RecurringPattern> streamed;
  Query q = MakeQuery(PaperExampleParams());
  q.store_patterns = false;
  q.sink = [&streamed](const RecurringPattern& p) { streamed.push_back(p); };

  Result<QueryResult> got = session.Run(q);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->patterns.empty());
  // Discovery order differs from canonical order; compare as sets.
  EXPECT_TRUE(SamePatternSets(streamed, PaperExamplePatterns()));
}

TEST(EngineQueryTest, ResultsCarryIntervalsForDownstreamAnalysis) {
  QuerySession session(DatasetSnapshot::Create(PaperExampleDb()));
  Result<QueryResult> got = session.Run(MakeQuery(PaperExampleParams()));
  ASSERT_TRUE(got.ok());
  ASSERT_FALSE(got->patterns.empty());
  for (const RecurringPattern& p : got->patterns) {
    EXPECT_FALSE(p.intervals.empty()) << p.ToString(nullptr);
    EXPECT_EQ(p.intervals.size(), p.recurrence());
  }
}

// --- Concurrency (the TSan target) -----------------------------------------

TEST(EngineConcurrencyTest, ConcurrentSessionsShareOneSnapshotSafely) {
  TransactionDatabase db = MakeRandomDb(RandomDbSpec{}, 91);
  auto snapshot = DatasetSnapshot::Create(db);
  QuerySession session(snapshot);

  // Fresh expectations per parameter point, computed up front.
  std::vector<RpParams> points;
  for (uint64_t dps : {0u, 1u}) {
    for (uint64_t drec : {0u, 1u}) {
      RpParams p = PaperExampleParams();
      p.min_ps += dps;
      p.min_rec += drec;
      points.push_back(p);
    }
  }
  std::vector<std::vector<RecurringPattern>> want;
  want.reserve(points.size());
  for (const RpParams& p : points) {
    want.push_back(MineRecurringPatterns(db, p).patterns);
  }

  // 8 threads hammer the one session with interleaved parameter points
  // and backends; every result must match its fresh baseline.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 6; ++round) {
        size_t i = (t + round) % points.size();
        BackendKind kind =
            (t % 2 == 0) ? BackendKind::kSequential : BackendKind::kParallel;
        ExecOptions exec;
        exec.threads = 2;
        Result<QueryResult> got =
            session.Run(MakeQuery(points[i]), kind, exec);
        if (!got.ok() || got->patterns != want[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Racing builds may duplicate work but never exceed one build per
  // distinct parameter point.
  EXPECT_GE(session.tree_builds(), 1u);
  EXPECT_LE(session.tree_builds(), points.size());
}

}  // namespace
}  // namespace rpm::engine
