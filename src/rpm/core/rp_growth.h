// RP-growth: pattern-growth mining of recurring patterns (Sec. 4,
// Algorithms 1-5).
//
// Pipeline:
//   1. One database scan builds the RP-list and prunes non-candidate items
//      by the Erec bound (Algorithm 1).
//   2. A second scan builds the RP-tree over candidate items in
//      support-descending order (Algorithms 2-3).
//   3. Bottom-up mining with ts-list push-up: for each suffix item collect
//      TS^beta, gate on Erec(beta) >= minRec, test the pattern with
//      getRecurrence (Algorithm 5), build the conditional tree from items
//      passing the conditional Erec gate, recurse (Algorithm 4).

#ifndef RPM_CORE_RP_GROWTH_H_
#define RPM_CORE_RP_GROWTH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "rpm/common/status.h"
#include "rpm/core/cancellation.h"
#include "rpm/core/mining_params.h"
#include "rpm/core/pattern.h"
#include "rpm/core/rp_list.h"
#include "rpm/core/rp_tree.h"
#include "rpm/timeseries/transaction_database.h"

namespace rpm {

/// Search-space gate used while growing patterns.
enum class PruningMode {
  /// The paper's Erec bound (Sec. 4.1) — default.
  kErec,
  /// Ablation baseline: only the trivial anti-monotone gate
  /// Sup(X) >= minPS * minRec (every recurring pattern needs that many
  /// timestamps). This is what a naive adaptation without the paper's
  /// contribution would use.
  kSupportOnly,
};

struct RpGrowthOptions {
  PruningMode pruning = PruningMode::kErec;
  /// 0 = unlimited. Patterns longer than this are neither emitted nor
  /// explored (useful to bound ablation runs).
  size_t max_pattern_length = 0;
  /// Invoked once per discovered pattern, in discovery (not canonical)
  /// order: top-level subproblems run heaviest first, not bottom-up. Lets
  /// callers stream results to disk / aggregate counts without
  /// materialising the full set.
  std::function<void(const RecurringPattern&)> sink;
  /// When false, discovered patterns are only delivered to `sink` (and
  /// counted in stats) — RpGrowthResult::patterns stays empty. Low
  /// thresholds can produce 10^4-10^5 patterns (Table 5); combined with a
  /// sink this caps memory at O(tree).
  bool store_patterns = true;
  /// Worker threads: 0 = one per hardware thread, N = exactly N. The
  /// RP-list scan is always sequential; the initial RP-tree build shards
  /// the transactions by lowest candidate rank across this many workers
  /// (see BuildRankedTree). Mining lays the tree's ts-lists out on this
  /// many workers, then projects each suffix item's conditional database
  /// out of the unmodified tree and mines the projections on them too
  /// (1 = all on the calling thread). The pattern set,
  /// its canonical order and all stats counters are identical for every
  /// value. `sink` callbacks are serialized (never concurrent), but their
  /// *order* is only deterministic at num_threads == 1.
  size_t num_threads = 1;
  /// Resource governance (DESIGN.md §7): deadline / memory / cancellation
  /// checkpoints plus the max-patterns cap. Not owned; null = ungoverned
  /// (zero overhead beyond one branch per checkpoint site). Truncation is
  /// all-or-nothing per top-level suffix subproblem: the result holds the
  /// complete patterns of a contiguous prefix of the bottom-up
  /// (descending-rank) subproblem order, so a max_patterns cut is
  /// bit-identical at every thread count. Subproblems past the cut may
  /// still be mined before they are dropped. Under an active budget,
  /// `sink` is best-effort — it may observe patterns from subproblems
  /// that are later dropped from the committed result.
  QueryBudget* budget = nullptr;
};

/// Instrumentation for the performance study and the pruning ablation.
struct RpGrowthStats {
  size_t num_items = 0;             ///< Distinct items in the database.
  size_t num_candidate_items = 0;   ///< Items surviving the RP-list gate.
  size_t initial_tree_nodes = 0;    ///< RP-tree size after construction.
  size_t conditional_trees = 0;     ///< Trees built during mining.
  size_t patterns_examined = 0;     ///< Suffix growths whose gate was run.
  size_t patterns_emitted = 0;      ///< Recurring patterns found.
  size_t threads_used = 1;          ///< Mining-phase worker count.
  // Ts-list merge-kernel counters (src/rpm/core/ts_merge.h). All three are
  // schedule-invariant: parallel runs report exactly the sequential values.
  size_t merge_invocations = 0;     ///< Run-merge kernel calls.
  size_t runs_merged = 0;           ///< Sorted runs consumed by the kernel.
  size_t timestamps_merged = 0;     ///< Timestamps written by the kernel.
  // Gate-scan (columnar kernel, core/ts_block.h) counters. Also
  // schedule-invariant: which ts-lists get gate-scanned depends only on
  // the data and params, never on the worker schedule. gaps_simd /
  // gaps_scanned is the SIMD lane utilization of the mining run (0 under
  // RPM_FORCE_SCALAR or off x86).
  size_t gate_lists_scanned = 0;    ///< Gate / interval scans performed.
  size_t gate_gaps_scanned = 0;     ///< Timestamp gaps evaluated in scans.
  size_t gate_gaps_simd = 0;        ///< Gaps evaluated at full vector width.
  /// Peak bytes retained by one miner scratch pool (frames, run
  /// descriptors, merge and mask buffers): the largest per-worker pool.
  size_t scratch_bytes_peak = 0;
  /// Bytes retained across ALL per-worker scratch pools together — the
  /// number comparable between thread counts (equals scratch_bytes_peak
  /// at one worker).
  size_t scratch_bytes_total = 0;
  // RP-tree construction (see TreeBuildStats):
  size_t tree_build_threads = 1;    ///< Workers that built shards.
  size_t tree_partials_merged = 0;  ///< Shards spliced after the first.
  double tree_merge_seconds = 0.0;  ///< Wall clock of the shard splice.
  double list_seconds = 0.0;        ///< Wall clock of the RP-list scan.
  double tree_seconds = 0.0;        ///< Wall clock of RP-tree construction.
  /// Wall clock of the mining phase (preorder layout + workers).
  double mine_seconds = 0.0;
  /// Wall clock of the preorder ts-list layout, the part of mine_seconds
  /// spent before any subproblem is projected.
  double layout_seconds = 0.0;
  /// Mining time summed across workers. Equals mine_seconds on one
  /// thread; exceeds it under parallelism (the ratio is the effective
  /// mining-phase speedup).
  double mine_cpu_seconds = 0.0;
  /// End-to-end wall clock, measured on its own stopwatch — NOT the sum
  /// of the phase timers, so parallel speedup stays visible even if
  /// phases ever overlap.
  double total_seconds = 0.0;
};

struct RpGrowthResult {
  std::vector<RecurringPattern> patterns;
  RpGrowthStats stats;
  /// Budget verdict: OK when the run completed (or was only cut by the
  /// soft max-patterns cap); kDeadlineExceeded / kResourceExhausted /
  /// kCancelled when a hard stop ended it early. Always OK without a
  /// budget.
  Status status;
  /// True when one or more subproblems were dropped — `patterns` then
  /// holds the committed bottom-up prefix. A non-OK status with
  /// truncated == false means the budget tripped only after mining had
  /// already completed (result is whole). Under truncation,
  /// stats.patterns_emitted counts committed patterns only, while the
  /// exploration counters (patterns_examined, conditional_trees, merge_*)
  /// keep counting the work actually performed.
  bool truncated = false;
};

/// Mines the complete set of recurring patterns of `db` under `params`.
/// `params` must validate (checked; invalid params are a caller bug).
/// Deterministic: patterns are returned in canonical itemset order.
///
/// Output size caution: like all itemset mining, the result can be
/// exponential in the longest transaction when thresholds are loose
/// (minPS * minRec close to 1). Use realistic thresholds, and
/// options.max_pattern_length / options.store_patterns=false to bound
/// exploration and memory when probing unknown data.
RpGrowthResult MineRecurringPatterns(const TransactionDatabase& db,
                                     const RpParams& params,
                                     const RpGrowthOptions& options = {});

// --- Phase-split API (query engine) ----------------------------------------
//
// Passes 1-2 (RP-list scan, candidate ordering, RP-tree construction) are
// query-independent given (period, tolerance, pruning mode): tightening
// minPS/minRec only *shrinks* the candidate set, so a tree built at looser
// thresholds is a superset of the stricter tree and mining it under the
// stricter params yields the identical pattern set (the Erec bound is
// anti-monotone and every per-pattern test is evaluated exactly from
// TS^beta). The engine's planner builds once via PrepareMining and mines
// many times via MineFromPrepared(const PreparedMining&, ...), which never
// mutates the build: at every thread count it reads the shared tree
// through a preorder ts-list layout (core/projection.h) built and owned by
// the call — each node's push-up accumulation is a contiguous span of it,
// so every worker projects the suffix items it mines without a clone or a
// serial sweep.

/// Instrumentation of one RP-tree construction, folded into the tree_*
/// fields of RpGrowthStats. The field names predate the shard build and
/// are kept for the benchmark readers that key on them.
struct TreeBuildStats {
  size_t threads_used = 1;   ///< Workers that actually built shards.
  /// Shards spliced after the first (0 for a one-shard build, which is
  /// returned as built).
  size_t partials_merged = 0;
  /// Always 0: the splice re-inserts no node (it counted the nodes the
  /// partial-trie fold it replaced visited).
  size_t merged_nodes = 0;
  double merge_seconds = 0.0;  ///< Wall clock of the splice.
};

/// Query-independent mining state: the RP-list and the built (unmined)
/// RP-tree, plus the build-phase stats that an end-to-end run would report.
struct PreparedMining {
  /// Params the tree was built at (the loosest params this build serves).
  RpParams params;
  PruningMode pruning = PruningMode::kErec;
  /// Full per-item aggregates (supports top-k threshold seeding).
  RpList list;
  /// Candidate order of the tree (rank r holds items_by_rank[r]).
  std::vector<ItemId> items_by_rank;
  /// The built tree, never mutated once built. Mining reads it directly
  /// (through a TsPreorderLayout it builds per call), so concurrent
  /// queries may share one build.
  TsPrefixTree tree{std::vector<ItemId>{}};
  // Build-phase stats, folded into every MineFromPrepared result:
  size_t num_items = 0;
  size_t num_candidate_items = 0;
  size_t initial_tree_nodes = 0;
  double list_seconds = 0.0;
  double tree_seconds = 0.0;
  TreeBuildStats tree_build;
};

/// Runs passes 1-2 over `db` at `params` (which must validate). `budget`
/// (optional) checkpoints both scans and accounts tree bytes while
/// building; on a hard stop the returned build is partial and must be
/// discarded, never cached (check budget->hard_stopped()).
/// `tree_threads` parallelizes pass 2 (see BuildRankedTree); 1 is the
/// sequential reference, 0 = one worker per hardware thread. The built
/// tree is observably identical for every value.
PreparedMining PrepareMining(const TransactionDatabase& db,
                             const RpParams& params,
                             PruningMode pruning = PruningMode::kErec,
                             QueryBudget* budget = nullptr,
                             size_t tree_threads = 1);

/// Pass 2 only: builds the RP-tree of `db` over an externally supplied
/// candidate order (every id in `items_by_rank` distinct and <
/// db.ItemUniverseSize()). PrepareMining passes the batch RP-list order;
/// it is public so that benchmarks can time the build on its own and tests
/// can compare builds across thread counts.
/// With a budget, the build checkpoints per transaction and reports the
/// growing tree's bytes (released again before returning — the caller
/// re-tracks the finished tree for the mining phase); a stopped build
/// returns a partial tree the caller must discard.
///
/// The build runs as root-rank shards on `num_threads` workers (0 =
/// hardware; one shard per worker, one in all for databases under 512
/// transactions): shard k owns a contiguous range of lowest candidate
/// ranks, balanced by the candidate length of the transactions starting
/// there, and inserts exactly those transactions, in database order, into
/// its own tree — so no two shards share a node. TsPrefixTree::Splice
/// then merges the shards' node-link chains in parallel over ranks, by
/// the index of the transaction that created each node. The result is
/// observably identical to the one-shard build: chains keep the
/// sequential first-touch order and every node's ts-list is the same
/// database-order concatenation (only internal Node::seq values and the
/// root's sibling order differ; nothing reads either — see DESIGN.md
/// §8.3). Each shard checkpoints the budget per transaction and reports
/// its tree's growth; a stop inside any shard leaves a partial build. If
/// an insert throws (the "rptree.alloc" failpoint), the reported bytes
/// are released before the exception propagates. `stats`, when non-null,
/// receives the build's instrumentation.
TsPrefixTree BuildRankedTree(const TransactionDatabase& db,
                             const std::vector<ItemId>& items_by_rank,
                             QueryBudget* budget = nullptr,
                             size_t num_threads = 1,
                             TreeBuildStats* stats = nullptr);

/// Pass 3 (bottom-up mining) over `prepared`'s build, which is only read
/// (safe to call concurrently on one build).
/// `params` must be no looser than prepared.params: same period and
/// max_gap_violations, params.min_ps >= prepared.params.min_ps,
/// params.min_rec >= prepared.params.min_rec (checked). options.pruning
/// must equal prepared.pruning. With equal params the result — patterns,
/// stats counters, canonical order — is bit-identical to
/// MineRecurringPatterns; with stricter params the pattern set is still
/// exactly the stricter run's, while tree/exploration counters reflect the
/// looser build. stats.total_seconds covers only this call (build time is
/// in the folded list_seconds/tree_seconds).
RpGrowthResult MineFromPrepared(const PreparedMining& prepared,
                                const RpParams& params,
                                const RpGrowthOptions& options = {});

/// The same over a caller-supplied `tree` from `prepared` (the master moved
/// out, or a Clone()), which is only read.
RpGrowthResult MineFromPrepared(const PreparedMining& prepared,
                                TsPrefixTree tree, const RpParams& params,
                                const RpGrowthOptions& options = {});

}  // namespace rpm

#endif  // RPM_CORE_RP_GROWTH_H_
