// Resource-governance semantics across all three backends (DESIGN.md §7):
// deadlines, cooperative cancellation, memory budgets and the max-patterns
// cap must stop a query within one checkpoint interval, report the right
// status, and — for the soft cap — produce the IDENTICAL deterministic
// committed prefix on every backend and every run.

#include <chrono>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/cancellation.h"
#include "rpm/engine/session.h"
#include "rpm/verify/fault_injection.h"
#include "test_util.h"

namespace rpm {
namespace {

using engine::BackendKind;
using engine::DatasetSnapshot;
using engine::ExecOptions;
using engine::Query;
using engine::QueryResult;
using engine::QuerySession;

// The planner-backed backends; the windowed backend's governance is
// covered by windowed_miner_test and engine_test.
constexpr BackendKind kPlannedBackends[] = {BackendKind::kSequential,
                                            BackendKind::kParallel};

ExecOptions ExecFor(BackendKind backend) {
  ExecOptions exec;
  if (backend == BackendKind::kParallel) exec.threads = 4;
  return exec;
}

/// A database big enough that governed runs have checkpoints to hit, small
/// enough that ungoverned runs are instant.
TransactionDatabase GovernanceDb() {
  testing::RandomDbSpec spec;
  spec.num_items = 10;
  spec.num_timestamps = 400;
  spec.item_base_prob = 0.4;
  spec.num_bursts = 6;
  return testing::MakeRandomDb(spec, /*seed=*/17);
}

RpParams GovernanceParams() {
  RpParams params;
  params.period = 3;
  params.min_ps = 2;
  params.min_rec = 2;
  return params;
}

QueryResult RunOrDie(QuerySession& session, const Query& query,
                     BackendKind backend) {
  Result<QueryResult> run = session.Run(query, backend, ExecFor(backend));
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(run).ValueOrDie();
}

bool ContainsPattern(const std::vector<RecurringPattern>& set,
                     const RecurringPattern& pattern) {
  for (const RecurringPattern& candidate : set) {
    if (candidate == pattern) return true;
  }
  return false;
}

TEST(GovernanceTest, UnlimitedQueryReportsOkAndNoTruncation) {
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  QuerySession session(snapshot);
  Query query;
  query.params = GovernanceParams();
  for (BackendKind backend : kPlannedBackends) {
    QueryResult result = RunOrDie(session, query, backend);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.truncated);
    // No budget was created, so the accounting stays zero.
    EXPECT_EQ(result.resource_usage.checkpoints, 0u);
    EXPECT_EQ(result.resource_usage.nodes_built, 0u);
  }
}

TEST(GovernanceTest, PreCancelledTokenStopsEveryBackend) {
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  CancellationToken token;
  token.Cancel();
  Query query;
  query.params = GovernanceParams();
  query.cancel = &token;
  for (BackendKind backend : kPlannedBackends) {
    QuerySession session(snapshot);
    QueryResult result = RunOrDie(session, query, backend);
    EXPECT_TRUE(result.status.IsCancelled())
        << engine::BackendName(backend) << ": " << result.status.ToString();
    EXPECT_TRUE(result.truncated);
    EXPECT_TRUE(result.patterns.empty());
  }
}

TEST(GovernanceTest, CancellationAfterCompletionLeavesResultIntact) {
  // Cancelling the token after Run returns must not affect the result —
  // the budget's lifetime is the query execution.
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  QuerySession session(snapshot);
  CancellationToken token;
  Query query;
  query.params = GovernanceParams();
  query.cancel = &token;
  QueryResult result = RunOrDie(session, query, BackendKind::kSequential);
  token.Cancel();
  EXPECT_TRUE(result.status.ok());
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.patterns.size(), 0u);
  // The governed run kept accounting even though nothing tripped.
  EXPECT_GT(result.resource_usage.nodes_built, 0u);
  EXPECT_GT(result.resource_usage.tracked_bytes_peak, 0u);
}

TEST(GovernanceTest, DeadlineViaClockFaultStopsEveryBackend) {
  // The clock.skip failpoint makes the FIRST deadline probe behave as if
  // the wall clock jumped past the deadline — a deterministic stand-in
  // for a real timeout (the 60s limit is never reached naturally).
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  Query ungoverned;
  ungoverned.params = GovernanceParams();
  QuerySession reference_session(snapshot);
  const QueryResult full =
      RunOrDie(reference_session, ungoverned, BackendKind::kSequential);

  Query query = ungoverned;
  query.limits.timeout_ms = 60 * 1000;
  for (BackendKind backend : kPlannedBackends) {
    QuerySession session(snapshot);
    FaultInjectionOptions inject;
    inject.site_filter = "clock.skip";
    inject.fire_on_nth = 1;
    ScopedFaultInjection armed(inject);
    QueryResult result = RunOrDie(session, query, backend);
    EXPECT_TRUE(result.status.IsDeadlineExceeded())
        << engine::BackendName(backend) << ": " << result.status.ToString();
    EXPECT_TRUE(result.truncated);
    // Graceful degradation: whatever was committed is real — a subset of
    // the complete result, never fabricated patterns.
    for (const RecurringPattern& p : result.patterns) {
      EXPECT_TRUE(ContainsPattern(full.patterns, p)) << p.ToString();
    }
  }
}

TEST(GovernanceTest, WallClockDeadlineStopsPromptly) {
  // Real-clock variant on a heavier database: a 30ms budget must stop the
  // query far below the ungoverned runtime. The assertion bound is
  // deliberately loose (one checkpoint interval plus scheduling noise)
  // to stay robust on slow CI machines.
  testing::RandomDbSpec spec;
  spec.num_items = 14;
  spec.num_timestamps = 3000;
  spec.item_base_prob = 0.45;
  spec.num_bursts = 12;
  auto snapshot =
      DatasetSnapshot::Create(testing::MakeRandomDb(spec, /*seed=*/23));
  Query query;
  query.params = GovernanceParams();
  query.limits.timeout_ms = 30;
  QuerySession session(snapshot);
  const auto start = std::chrono::steady_clock::now();
  QueryResult result = RunOrDie(session, query, BackendKind::kSequential);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  if (result.status.ok()) {
    // The machine finished the whole mine inside the budget; nothing to
    // assert about truncation.
    EXPECT_FALSE(result.truncated);
  } else {
    EXPECT_TRUE(result.status.IsDeadlineExceeded())
        << result.status.ToString();
    EXPECT_TRUE(result.truncated);
    EXPECT_LT(elapsed.count(), 5000) << "query ran far past its deadline";
  }
}

TEST(GovernanceTest, MemoryBudgetTripsResourceExhausted) {
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  Query ungoverned;
  ungoverned.params = GovernanceParams();
  QuerySession reference_session(snapshot);
  const QueryResult full =
      RunOrDie(reference_session, ungoverned, BackendKind::kSequential);

  Query query = ungoverned;
  query.limits.memory_budget_bytes = 1;  // Trips on the first tree bytes.
  for (BackendKind backend : kPlannedBackends) {
    QuerySession session(snapshot);
    QueryResult result = RunOrDie(session, query, backend);
    EXPECT_TRUE(result.status.IsResourceExhausted())
        << engine::BackendName(backend) << ": " << result.status.ToString();
    EXPECT_TRUE(result.truncated);
    for (const RecurringPattern& p : result.patterns) {
      EXPECT_TRUE(ContainsPattern(full.patterns, p)) << p.ToString();
    }
    EXPECT_GT(result.resource_usage.tracked_bytes_peak, 0u);
  }
}

TEST(GovernanceTest, MaxPatternsPrefixIsIdenticalAcrossBackendsAndRuns) {
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  Query ungoverned;
  ungoverned.params = GovernanceParams();
  QuerySession reference_session(snapshot);
  const QueryResult full =
      RunOrDie(reference_session, ungoverned, BackendKind::kSequential);
  ASSERT_GT(full.patterns.size(), 8u)
      << "fixture too small to exercise the cap";

  const std::vector<uint64_t> caps = {1, 3, full.patterns.size() / 2,
                                      full.patterns.size() - 1};
  for (uint64_t cap : caps) {
    Query query = ungoverned;
    query.limits.max_patterns = cap;
    std::vector<RecurringPattern> reference;
    bool have_reference = false;
    for (BackendKind backend : kPlannedBackends) {
      QuerySession session(snapshot);
      QueryResult result = RunOrDie(session, query, backend);
      // Soft cap: OK status, truncated result, committed count <= cap.
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_TRUE(result.truncated);
      EXPECT_LE(result.patterns.size(), cap);
      EXPECT_EQ(result.resource_usage.patterns_emitted,
                result.patterns.size());
      for (const RecurringPattern& p : result.patterns) {
        EXPECT_TRUE(ContainsPattern(full.patterns, p)) << p.ToString();
      }
      if (!have_reference) {
        reference = result.patterns;
        have_reference = true;
      } else {
        EXPECT_EQ(result.patterns, reference)
            << engine::BackendName(backend)
            << " committed a different prefix at cap " << cap;
      }
      // Re-run on a fresh session: the cut is arithmetic, not racy.
      QuerySession repeat_session(snapshot);
      QueryResult repeat = RunOrDie(repeat_session, query, backend);
      EXPECT_EQ(repeat.patterns, result.patterns)
          << engine::BackendName(backend) << " is nondeterministic at cap "
          << cap;
    }
  }
}

TEST(GovernanceTest, MaxPatternsAboveTotalDoesNotTruncate) {
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  Query ungoverned;
  ungoverned.params = GovernanceParams();
  QuerySession reference_session(snapshot);
  const QueryResult full =
      RunOrDie(reference_session, ungoverned, BackendKind::kSequential);

  Query query = ungoverned;
  query.limits.max_patterns = full.patterns.size() + 100;
  for (BackendKind backend : kPlannedBackends) {
    QuerySession session(snapshot);
    QueryResult result = RunOrDie(session, query, backend);
    EXPECT_TRUE(result.status.ok());
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.patterns, full.patterns);
  }
}

TEST(GovernanceTest, AbortedBuildIsNeverCachedByThePlanner) {
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  QuerySession session(snapshot);
  Query strangled;
  strangled.params = GovernanceParams();
  strangled.limits.memory_budget_bytes = 1;
  QueryResult failed = RunOrDie(session, strangled, BackendKind::kSequential);
  ASSERT_TRUE(failed.status.IsResourceExhausted());
  // The aborted build must not count as a session tree build...
  EXPECT_EQ(session.tree_builds(), 0u);

  // ...and the SAME session must then serve the full result from a fresh,
  // complete build — not the poisoned partial one.
  Query plain;
  plain.params = GovernanceParams();
  QueryResult ok = RunOrDie(session, plain, BackendKind::kSequential);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_FALSE(ok.truncated);
  EXPECT_EQ(session.tree_builds(), 1u);

  QuerySession fresh_session(snapshot);
  QueryResult fresh = RunOrDie(fresh_session, plain, BackendKind::kSequential);
  EXPECT_EQ(ok.patterns, fresh.patterns);
}

TEST(GovernanceTest, MaxPatternsIncompatibleWithTopK) {
  Query query;
  query.params = GovernanceParams();
  query.top_k = 5;
  query.limits.max_patterns = 10;
  EXPECT_FALSE(query.Validate().ok());
}

TEST(GovernanceTest, GovernedRunPopulatesUsageCounters) {
  auto snapshot = DatasetSnapshot::Create(GovernanceDb());
  QuerySession session(snapshot);
  Query query;
  query.params = GovernanceParams();
  query.limits.timeout_ms = 60 * 1000;  // Generous: completes well within.
  QueryResult result = RunOrDie(session, query, BackendKind::kSequential);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.resource_usage.nodes_built, 0u);
  EXPECT_GT(result.resource_usage.tracked_bytes_peak, 0u);
  EXPECT_GT(result.resource_usage.checkpoints, 0u);
  EXPECT_EQ(result.resource_usage.patterns_emitted, result.patterns.size());
}

}  // namespace
}  // namespace rpm
