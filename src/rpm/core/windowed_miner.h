// Incremental mining over a time-sliding window (ROADMAP item 2).
//
// A monitoring deployment keeps only the last W time units of the stream
// alive and wants the recurring-pattern set of that window refreshed on
// every delta of newly arrived transactions — without paying a full
// re-mine of the window per delta. WindowedMiner maintains the window
// [now - W, now] incrementally, in the spirit of the sliding-window
// local-interval-frequency evaluation of arXiv 2604.24122 (PAPERS.md)
// mapped onto this repo's periodic-interval decomposition:
//
//   * Tail appends land in per-item ts-list columns (WindowedRpList) in
//     amortized O(1) per event — an append is the degenerate single-run
//     case of the PR 2 run-aware merge kernel: it either extends the
//     item's newest periodic run or opens a new one.
//   * Expiry is lazy. Columns tombstone their dead prefix ([0, head));
//     the per-delta RP-tree drops expired timestamps and childless nodes
//     through TsPrefixTree::RetireBefore; storage is reclaimed by a
//     periodic compaction that fires when the live fraction of the
//     window drops below WindowedMinerOptions::compact_live_fraction.
//   * The output of every delta is a pattern-set *diff* (added / removed
//     / changed), so dashboards consume deltas instead of full sets.
//
// Correctness of the delta algorithm (the verify harness cross-checks it
// case-by-case; DESIGN.md §9 has the full argument):
//
//   Let A be the union of the item sets of the transactions appended or
//   expired by a delta. A pattern X with X ∩ A = ∅ has TS^X unchanged —
//   no transaction entering or leaving the window contains all of X — so
//   its committed measures carry over verbatim. For X with X ∩ A ≠ ∅,
//   every live window transaction containing X contains some a ∈ A, so
//   it belongs to D_A, the sub-database of live transactions containing
//   at least one A-item. Mining D_A under the same params therefore
//   reproduces the exact window-wide measures of every A-intersecting
//   pattern, and the new committed set is
//       (old set minus A-intersecting) ∪ (mined A-intersecting).
//   D_A is assembled with MergeSortedRuns over the A-items' live columns
//   (each column is one sorted run) plus the batch as one more run.
//
// Budget governance is transactional: a delta stages nothing into the
// miner until its sub-mine has succeeded, so a hard budget stop
// (deadline / memory / cancellation) anywhere inside a delta leaves the
// miner exactly at the previous committed state — the results a stream
// reports are always the prefix of deltas that completed, deterministic
// for a given stream and delta schedule. Compaction runs after commit
// and is pure storage reclamation: a budget trip inside it stops the
// sweep early without affecting any result.
//
// Model restrictions: exact model only (params.max_gap_violations == 0)
// and no pattern cap (a capped sub-mine would make diffs meaningless);
// the engine's windowed executor rejects such queries up front.

#ifndef RPM_CORE_WINDOWED_MINER_H_
#define RPM_CORE_WINDOWED_MINER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rpm/common/status.h"
#include "rpm/core/cancellation.h"
#include "rpm/core/mining_params.h"
#include "rpm/core/pattern.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/windowed_rp_list.h"
#include "rpm/core/ts_merge.h"
#include "rpm/timeseries/transaction_database.h"
#include "rpm/timeseries/types.h"

namespace rpm {

struct WindowedMinerOptions {
  /// Compact tombstoned storage (columns + the window deque) when the
  /// live fraction drops below this. <= 0 disables compaction.
  double compact_live_fraction = 0.5;
  /// Only consider compaction once this many slots are stored (avoids
  /// churn on tiny windows).
  size_t compact_min_stored = 64;
  /// Forwarded to every per-delta sub-mine (0 = unlimited).
  size_t max_pattern_length = 0;
};

/// Cumulative maintenance counters. All schedule-invariant: a given
/// stream and delta schedule produce identical values on every machine
/// (sub-mines run single-threaded), which is what lets bench_compare
/// treat any drift as correctness drift.
struct WindowedCounters {
  uint64_t deltas_applied = 0;
  uint64_t timestamps_appended = 0;    ///< Column events accepted.
  uint64_t timestamps_retired = 0;     ///< Column events expired.
  uint64_t transactions_expired = 0;   ///< Window transactions expired.
  uint64_t nodes_retired = 0;          ///< RP-tree nodes retired.
  uint64_t runs_retired = 0;           ///< Column periodic runs expired.
  uint64_t compactions = 0;            ///< Compaction sweeps that fired.
  uint64_t affected_items = 0;         ///< Cumulative |A| over deltas.
  uint64_t subproblem_transactions = 0;  ///< Cumulative |D_A| over deltas.
};

/// Pattern-set diff of one delta, against the previously committed set.
/// `added`, `removed` and `changed` are each in canonical itemset order
/// and mutually disjoint; `removed` carries the last committed value,
/// `changed` the new one. Reconstructing (committed_before − removed −
/// changed-old + changed-new + added) yields exactly patterns() after
/// the call — the verify harness checks this identity per delta.
struct PatternDelta {
  std::vector<RecurringPattern> added;
  std::vector<RecurringPattern> removed;
  std::vector<RecurringPattern> changed;
  /// False when the delta was refused (invalid batch or hard budget
  /// stop): the miner state is untouched and the diff vectors are empty.
  bool applied = false;
  /// OK for an applied delta (even when compaction was cut short by the
  /// budget — reclamation never affects results); the refusal verdict
  /// otherwise.
  Status status;
  // Per-delta observability:
  uint64_t appended_transactions = 0;
  uint64_t expired_transactions = 0;
  uint64_t affected_items = 0;       ///< |A|.
  uint64_t subproblem_transactions = 0;  ///< |D_A|.
  double maintain_seconds = 0.0;  ///< Delta time outside the sub-mine.
  double mine_seconds = 0.0;      ///< Sub-mine (prepare + mine) time.
};

/// Incremental miner over the sliding window [now - W, now]. Not
/// thread-safe; one instance per stream.
class WindowedMiner {
 public:
  /// `params` must validate with max_gap_violations == 0; `window` > 0.
  /// Violations are programmer errors (checked).
  WindowedMiner(const RpParams& params, Timestamp window,
                const WindowedMinerOptions& options = {});

  /// Applies one delta: appends `batch` (timestamps strictly increasing,
  /// all greater than every previously appended timestamp; items sorted,
  /// duplicate-free, no kInvalidItem) and slides the window to
  /// [max_ts - window, max_ts]. A batch transaction older than the new
  /// cutoff (possible when the batch spans more than the window) is
  /// counted as appended and immediately expired. An empty batch is a
  /// no-op delta. Transactional under `budget` (may be null): see the
  /// file comment.
  PatternDelta ApplyDelta(const std::vector<Transaction>& batch,
                          QueryBudget* budget = nullptr);

  /// Pure window slide: advances now to `now` (>= the current now,
  /// InvalidArgument otherwise) without appending, expiring what falls
  /// out. Equivalent to ApplyDelta({}) except that it moves time forward.
  PatternDelta AdvanceTo(Timestamp now, QueryBudget* budget = nullptr);

  /// The committed pattern set of the live window, canonical itemset
  /// order. Identical to MineRecurringPatterns over WindowSnapshot() —
  /// the differential harness' windowed ≡ batch check.
  const std::vector<RecurringPattern>& patterns() const { return patterns_; }

  /// The live window contents as a database (verification / debugging;
  /// copies the live transactions).
  TransactionDatabase WindowSnapshot() const;

  const WindowedCounters& counters() const { return counters_; }

  /// Aggregated stats of every committed sub-mine plus the assembly
  /// merge-kernel counters; all counter fields are schedule-invariant.
  const RpGrowthStats& mining_stats() const { return mining_stats_; }

  const RpParams& params() const { return params_; }
  Timestamp window() const { return window_; }
  /// Inclusive window start (Timestamp minimum before the first delta).
  Timestamp low_watermark() const { return cutoff_; }
  /// Current now (meaningful once a delta was applied).
  Timestamp now() const { return now_; }
  size_t live_transactions() const { return txns_.size() - head_; }

 private:
  PatternDelta ApplyDeltaInternal(const std::vector<Transaction>& batch,
                                  Timestamp now, QueryBudget* budget);
  Status ValidateBatch(const std::vector<Transaction>& batch) const;
  void MaybeCompact(BudgetCheckpointer& checkpoint);
  void FoldMiningStats(const RpGrowthStats& stats);

  RpParams params_;
  Timestamp window_;
  WindowedMinerOptions options_;

  std::vector<Transaction> txns_;  // Window deque; [head_, size) live.
  size_t head_ = 0;
  WindowedRpList columns_;
  std::vector<RecurringPattern> patterns_;

  Timestamp now_ = 0;
  Timestamp cutoff_;
  bool any_delta_ = false;

  WindowedCounters counters_;
  RpGrowthStats mining_stats_;
  MergeScratch scratch_;
};

}  // namespace rpm

#endif  // RPM_CORE_WINDOWED_MINER_H_
