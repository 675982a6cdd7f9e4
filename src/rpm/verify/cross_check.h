// Differential cross-checks for one (database, params) case.
//
// Three independent implementations of the paper's semantics exist in this
// codebase: the definitional oracle (brute_force.h), sequential/parallel
// RP-growth (rp_growth.h) and the incremental RP-list
// (windowed_rp_list.h). CrossCheckCase runs a case through all of them
// and reports every observable disagreement:
//
//   (a) oracle      — sequential RP-growth output vs MineByDefinition,
//                     pattern-by-pattern (items, support, interval list);
//   (b) parallel    — parallel RP-growth vs sequential: identical pattern
//                     sets AND identical schedule-invariant stats counters;
//   (c) streaming   — WindowedRpList with an unbounded window (every
//                     transaction appended, nothing expired) vs batch
//                     Algorithm 1: per-item support, Erec, interesting
//                     intervals, recurrence and live ts-list, and the
//                     candidate-item set. Exact model only (skipped when
//                     params.max_gap_violations > 0).
//   (d) engine      — the query engine (engine/session.h) over one shared
//                     snapshot: the sequential and parallel backends'
//                     QueryResults vs the direct sequential run
//                     (patterns AND schedule-invariant counters), plus the planner's loose->strict tree
//                     reuse vs a fresh stricter run — reused results must
//                     be bit-identical and reuse must actually trigger.
//   (e) simd        — the columnar gate kernels (core/ts_block.h) vs the
//                     scalar measures on every item's ts-list: the
//                     dispatched masked ComputeGateAndIntervals /
//                     ComputeRecurrenceUpperBound against the scalar
//                     loops, and every compiled ComputeBreakMasks variant
//                     the hardware admits against the scalar kernel.
//   (f) windowed    — the incremental sliding-window miner
//                     (core/windowed_miner.h) replaying the case in
//                     deltas: after EVERY delta, the committed pattern
//                     set vs a from-scratch batch mine of the live
//                     window, the per-delta diff's reconstruction
//                     identity, and the engine's windowed backend
//                     end-to-end. Exact model only (skipped when
//                     params.max_gap_violations > 0).
//
// The parallel run of check (b) builds its RP-tree through the
// partitioned parallel build, so (b) also differentially validates
// parallel-vs-sequential tree construction on every case.
//
// The sequential miner is injectable so harness tests can plant a known
// bug (e.g. an off-by-one on interval ends) and assert the checks catch
// it and the shrinker minimizes it.

#ifndef RPM_VERIFY_CROSS_CHECK_H_
#define RPM_VERIFY_CROSS_CHECK_H_

#include <functional>
#include <string>
#include <vector>

#include "rpm/core/mining_params.h"
#include "rpm/core/pattern.h"
#include "rpm/timeseries/transaction_database.h"

namespace rpm::verify {

/// One observed disagreement between two implementations.
struct Divergence {
  /// Which cross-check noticed it: "oracle", "parallel", "streaming",
  /// "engine", "simd" or "windowed".
  std::string check;
  /// Human-readable description, e.g.
  ///   "pattern {0 2}: support 5 (rp-growth) vs 6 (oracle)".
  std::string detail;
};

/// Drop-in replacement for the sequential miner (fault injection).
using MinerFn = std::function<std::vector<RecurringPattern>(
    const TransactionDatabase&, const RpParams&)>;

struct CrossCheckOptions {
  bool check_oracle = true;
  bool check_parallel = true;
  bool check_streaming = true;
  bool check_engine = true;
  bool check_simd = true;
  bool check_windowed = true;
  /// Worker threads for the parallel run of check (b).
  size_t parallel_threads = 4;
  /// When set, replaces sequential RP-growth as the subject of checks (a)
  /// and (b). The parallel run and its stats baseline always use the real
  /// miner, so an injected bug shows up as a divergence, not a crash.
  MinerFn sequential_miner;
  /// Stop after this many divergences per check (the rest are elided with
  /// a summary line). 0 = unlimited.
  size_t max_divergences_per_check = 8;
};

/// Runs the enabled cross-checks; empty result == all implementations
/// agree on this case. `params` must validate and the item universe must
/// fit the oracle when check_oracle is on.
std::vector<Divergence> CrossCheckCase(const TransactionDatabase& db,
                                       const RpParams& params,
                                       const CrossCheckOptions& options = {});

}  // namespace rpm::verify

#endif  // RPM_VERIFY_CROSS_CHECK_H_
