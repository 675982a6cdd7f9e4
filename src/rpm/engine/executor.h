// Uniform query execution across the miner's three run modes.
//
// An Executor turns (planner, Query) into a QueryResult. All backends are
// observationally pure over the same snapshot: for any query they accept,
// the pattern set (and its canonical order) is bit-identical across
// backends and across repeated runs — only timings and threads_used vary.
//
//   sequential — the single-threaded reference path.
//   parallel   — suffix projections mined on a worker pool (PR-1 pool);
//                schedule-invariant counters match sequential exactly.
//   windowed   — the snapshot replayed in Query::delta-sized batches
//                through the incremental sliding-window miner
//                (core/windowed_miner.h); the result is the final live
//                window's committed pattern set. Exact model only, no
//                top-k / max-patterns / sinkless runs; requires
//                Query::window > 0. `sink`, when set, receives every
//                per-delta *added* pattern in delta order — the
//                dashboard-diff consumption model.

#ifndef RPM_ENGINE_EXECUTOR_H_
#define RPM_ENGINE_EXECUTOR_H_

#include <cstddef>
#include <string>

#include "rpm/common/status.h"
#include "rpm/engine/query.h"
#include "rpm/engine/query_planner.h"

namespace rpm::engine {

enum class BackendKind { kSequential, kParallel, kWindowed };

/// "sequential" / "parallel" / "windowed".
const char* BackendName(BackendKind kind);

/// Inverse of BackendName; InvalidArgument on anything else.
Result<BackendKind> ParseBackend(const std::string& name);

struct ExecOptions {
  /// Parallel-backend worker count: 0 = one per hardware thread, values
  /// <= 1 are promoted to 2 (a parallel run uses workers by definition).
  /// Ignored by the sequential and windowed backends.
  size_t threads = 0;
};

/// Stateless execution strategy; instances are shared singletons
/// (GetExecutor) and safe to use from several threads at once.
class Executor {
 public:
  virtual ~Executor() = default;

  virtual const char* name() const = 0;

  /// Runs `query` against the planner's snapshot. The planner supplies
  /// (and caches) the RP-list/RP-tree build; execution clones the cached
  /// tree, so the planner's state is never consumed. Errors: invalid
  /// query, or a query outside this backend's model (windowed with
  /// tolerance, top-k or no window).
  virtual Result<QueryResult> Execute(QueryPlanner& planner,
                                      const Query& query,
                                      const ExecOptions& options) const = 0;
};

/// The shared immutable executor for `kind`.
const Executor& GetExecutor(BackendKind kind);

}  // namespace rpm::engine

#endif  // RPM_ENGINE_EXECUTOR_H_
