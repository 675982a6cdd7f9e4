// Declarative mining queries and their uniform results — the *query* half
// of the engine's data/query lifecycle split (DESIGN.md §6).
//
// A Query says WHAT to mine (thresholds, pattern filters, top-k, sink); an
// Executor (executor.h) decides HOW (sequential, parallel, windowed); the
// QueryPlanner (query_planner.h) decides what build work can be skipped.
// Every backend returns the same QueryResult shape, so callers — the CLI,
// the verify harness, analysis reports, benches — consume one interface.

#ifndef RPM_ENGINE_QUERY_H_
#define RPM_ENGINE_QUERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rpm/common/status.h"
#include "rpm/core/cancellation.h"
#include "rpm/core/mining_params.h"
#include "rpm/core/pattern.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/windowed_miner.h"

namespace rpm::engine {

/// One declarative mining request against a DatasetSnapshot.
struct Query {
  /// per / minPS / minRec / tolerance (Definition 10 + the noise
  /// extension). With top_k > 0, params.min_rec is ignored (the descent
  /// chooses it) but period/min_ps/tolerance still apply.
  RpParams params;
  /// 0 = unlimited (forwarded to RpGrowthOptions).
  size_t max_pattern_length = 0;
  /// When > 0, mine the k most-recurring patterns by threshold descent
  /// instead of using params.min_rec.
  size_t top_k = 0;
  /// Post-mining pattern filters (pattern_filters.h).
  bool closed = false;
  bool maximal = false;
  /// Streaming delivery of discoveries, pre-filter and in discovery order
  /// (forwarded to RpGrowthOptions::sink; unused by top-k queries).
  std::function<void(const RecurringPattern&)> sink;
  /// When false, patterns are only delivered to `sink`; QueryResult
  /// carries stats but an empty pattern list. Incompatible with
  /// closed/maximal/top_k (those need the materialized set).
  bool store_patterns = true;
  /// Resource governance (DESIGN.md §7): wall-clock deadline, tracked-
  /// memory budget and max-patterns cap, all 0 = unlimited. The deadline
  /// covers plan + execute of this query. max_patterns is incompatible
  /// with top_k (the descent's selection and the cap's prefix-commit
  /// semantics contradict each other).
  ResourceLimits limits;
  /// External cancellation (e.g. client disconnect). Not owned; may be
  /// null; must outlive the query execution. Cancelling stops the query
  /// within one checkpoint interval with StatusCode::kCancelled.
  const CancellationToken* cancel = nullptr;
  /// Windowed backend only: width of the sliding window [now - W, now]
  /// in time units. Must be > 0 for --backend=windowed (and is ignored
  /// by the other backends). See executor.h / DESIGN.md §9.
  Timestamp window = 0;
  /// Windowed backend only: transactions per incremental delta when the
  /// snapshot is replayed through the windowed miner. 0 = the whole
  /// snapshot as one delta.
  uint64_t delta = 0;

  /// OK iff params validate and the flag combination is coherent.
  Status Validate() const;

  /// Canonical one-line rendering, e.g.
  ///   "per=2 minPS=3 minRec=2" or "per=2 minPS=3 top-k=5 closed".
  std::string ToString() const;
};

/// Uniform result of executing a Query on any backend.
struct QueryResult {
  /// Mined patterns in canonical itemset order, after closed/maximal
  /// filtering and top-k selection. Interval lists ride along on every
  /// pattern, so downstream analysis never recomputes them from raw
  /// ts-lists (pattern_stats.h falls back only when a pattern arrives
  /// without intervals).
  std::vector<RecurringPattern> patterns;
  /// Miner instrumentation. When the planner reused a looser-threshold
  /// build, tree/exploration counters describe that build (pattern output
  /// is unaffected — see query_planner.h for the soundness argument).
  RpGrowthStats stats;
  /// Executor that produced this result ("sequential", "parallel",
  /// "windowed").
  std::string backend;
  /// True when the planner served the RP-list/RP-tree from its session
  /// cache instead of building them for this query.
  bool tree_reused = false;
  /// Planner tree builds over the whole session, sampled after this query
  /// (a build-once/query-many run ends with 1).
  uint64_t session_tree_builds = 0;
  /// Top-k descent metadata (0 when top_k == 0).
  uint64_t top_k_rounds = 0;
  uint64_t top_k_final_min_rec = 0;
  /// Planning wall clock: cache lookup plus any RP-list/RP-tree build.
  double plan_seconds = 0.0;
  /// Execution wall clock: tree clone, mining, filters.
  double execute_seconds = 0.0;
  /// End-to-end wall clock of this query (excludes snapshot load).
  double total_seconds = 0.0;
  /// Budget verdict (DESIGN.md §7): OK when the query completed (or was
  /// only cut by the soft max-patterns cap); kDeadlineExceeded /
  /// kResourceExhausted / kCancelled when a hard stop ended it early —
  /// `patterns` then holds the deterministic committed prefix (possibly
  /// empty) with any closed/maximal filter applied to that prefix.
  Status status;
  /// True when the budget dropped part of the result (see
  /// RpGrowthResult::truncated for the exact prefix-commit semantics).
  bool truncated = false;
  /// Budget accounting, populated whenever the query ran with limits or a
  /// cancellation token (all-zero otherwise).
  ResourceUsage resource_usage;
  /// Windowed-backend maintenance counters (all-zero for the other
  /// backends). Schedule-invariant like the stats counters.
  WindowedCounters windowed;
};

}  // namespace rpm::engine

#endif  // RPM_ENGINE_QUERY_H_
