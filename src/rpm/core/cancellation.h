// Cooperative cancellation and per-query resource budgets (DESIGN.md §7).
//
// A QueryBudget is the single stop-authority for one query execution. It
// folds four independent stop sources into one sticky decision:
//
//   - wall-clock deadline        → kDeadlineExceeded  (hard stop)
//   - tracked-memory budget      → kResourceExhausted (hard stop)
//   - external CancellationToken → kCancelled         (hard stop)
//   - max-patterns cap           → OK + truncated     (soft stop)
//
// Hot loops never consult the clock directly. They hold a per-thread
// BudgetCheckpointer whose Check() is, on the fast path, one relaxed
// atomic load of the shared stop flag; every kCheckpointStride calls it
// additionally runs Probe(), which reads the clock and the cancellation
// token. An over-budget query therefore stops within one checkpoint
// interval of the limit being crossed, on every participating thread.
//
// Memory accounting is cooperative too: structure builders report their
// approximate footprint via AddTrackedBytes/ReleaseTrackedBytes (RP-tree
// nodes + ts-list timestamps — transient per-thread scratch is excluded,
// see DESIGN.md §7.2), and the budget trips when the live total crosses
// the limit.

#ifndef RPM_CORE_CANCELLATION_H_
#define RPM_CORE_CANCELLATION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "rpm/common/deadline.h"
#include "rpm/common/status.h"

namespace rpm {

/// One-way external cancellation signal (e.g. a client disconnect).
/// Cancel() may be called from any thread, any number of times.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query limits. Zero means unlimited for every field.
struct ResourceLimits {
  /// Wall-clock budget for the whole query (plan + execute).
  int64_t timeout_ms = 0;
  /// Budget for live tracked structures (RP-tree nodes + ts-list
  /// timestamps across all threads), in bytes.
  uint64_t memory_budget_bytes = 0;
  /// Soft cap on emitted patterns; crossing it truncates the result but
  /// keeps status OK.
  uint64_t max_patterns = 0;

  bool unlimited() const {
    return timeout_ms == 0 && memory_budget_bytes == 0 && max_patterns == 0;
  }
};

/// `mb` MiB in bytes, for memory limits given in MiB. InvalidArgument
/// naming `field` when the byte count does not fit in uint64 (a wrapped
/// product would silently turn a huge limit into a tiny one).
inline Result<uint64_t> MebibytesToBytes(uint64_t mb,
                                         const std::string& field) {
  if (mb > (UINT64_MAX >> 20)) {
    return Status::InvalidArgument(field + " " + std::to_string(mb) +
                                   " MiB overflows a byte count");
  }
  return mb << 20;
}

/// Accounting filled in by the budget during execution and surfaced on
/// QueryResult (even for queries that finish within budget).
struct ResourceUsage {
  /// Clock/cancellation probes actually taken (not fast-path checks).
  uint64_t checkpoints = 0;
  /// RP-tree nodes constructed across all trees and threads.
  uint64_t nodes_built = 0;
  /// High-water mark of live tracked bytes.
  uint64_t tracked_bytes_peak = 0;
  /// Patterns counted against max_patterns.
  uint64_t patterns_emitted = 0;
};

/// Why a budget asked the query to stop. kPatternCap is the only soft
/// reason: it truncates the result without making the status non-OK.
enum class StopReason : uint8_t {
  kNone = 0,
  kPatternCap = 1,
  kCancelled = 2,
  kDeadline = 3,
  kMemory = 4,
};

/// Shared stop-authority for one query execution. Thread-safe: workers
/// poll stop_requested() and report usage concurrently. The first reason
/// to fire wins and is sticky for the lifetime of the budget.
class QueryBudget {
 public:
  /// Fast-path stop checks happen on every Check(); a full Probe()
  /// (clock + token) every this-many checks per thread.
  static constexpr uint32_t kCheckpointStride = 256;

  /// `cancel` may be null; it is not owned and must outlive the budget.
  QueryBudget(const ResourceLimits& limits, const CancellationToken* cancel);

  QueryBudget(const QueryBudget&) = delete;
  QueryBudget& operator=(const QueryBudget&) = delete;

  const ResourceLimits& limits() const { return limits_; }

  /// True once any stop source fired. One relaxed load — safe for the
  /// innermost mining loops.
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Full checkpoint: consults the deadline and the cancellation token
  /// (and the clock.skip failpoint). Called by BudgetCheckpointer every
  /// kCheckpointStride checks; callers with natural coarse boundaries
  /// (per transaction, per suffix item) may call it directly.
  /// Returns stop_requested() after the probe.
  bool Probe();

  /// Reports bytes of a newly live tracked structure; trips the memory
  /// stop when the live total crosses the budget.
  void AddTrackedBytes(uint64_t bytes);
  /// Reports that a tracked structure was released.
  void ReleaseTrackedBytes(uint64_t bytes);

  void AddNodes(uint64_t n) {
    nodes_built_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Counts `n` committed patterns (pure accounting). The max_patterns cap
  /// itself is enforced by the mining loop at subproblem-commit
  /// boundaries — arithmetic on per-subproblem counts, never on this
  /// racy global — so every thread count cuts at the identical
  /// subproblem; a cut is recorded via RequestStop(StopReason::kPatternCap).
  void AddPatterns(uint64_t n) {
    patterns_.fetch_add(n, std::memory_order_relaxed);
  }

  StopReason stop_reason() const {
    return reason_.load(std::memory_order_acquire);
  }

  /// True when the budget stopped the query for a hard reason (deadline,
  /// memory, cancellation) — i.e. status() would be non-OK.
  bool hard_stopped() const {
    StopReason r = stop_reason();
    return r != StopReason::kNone && r != StopReason::kPatternCap;
  }

  /// The Status a query governed by this budget should return:
  /// OK for kNone and kPatternCap (the latter with a truncated result),
  /// kDeadlineExceeded / kResourceExhausted / kCancelled otherwise.
  Status status() const;

  /// Snapshot of the accounting so far. Safe to call while workers run,
  /// though mid-flight values are approximate.
  ResourceUsage usage() const;

  /// Forces a stop for an external reason (used by tests and the fault
  /// campaign). First reason still wins.
  void RequestStop(StopReason reason) { TripStop(reason); }

 private:
  /// First-wins: installs `reason` and raises the stop flag unless a
  /// reason is already set.
  void TripStop(StopReason reason);

  const ResourceLimits limits_;
  const CancellationToken* cancel_;
  const Deadline deadline_;

  std::atomic<bool> stop_{false};
  std::atomic<StopReason> reason_{StopReason::kNone};

  std::atomic<uint64_t> tracked_bytes_{0};
  std::atomic<uint64_t> tracked_bytes_peak_{0};
  std::atomic<uint64_t> nodes_built_{0};
  std::atomic<uint64_t> patterns_{0};
  std::atomic<uint64_t> checkpoints_{0};
};

/// Per-thread checkpoint helper for hot loops. Holds the countdown to the
/// next full Probe() so the shared budget is touched with one relaxed
/// load per Check() on the fast path. A null budget disables everything
/// at the cost of a single branch.
class BudgetCheckpointer {
 public:
  explicit BudgetCheckpointer(QueryBudget* budget) : budget_(budget) {}

  /// True when the query should stop. Call once per unit of work
  /// (pattern examined, transaction ingested, merge step).
  bool Check() {
    if (budget_ == nullptr) return false;
    if (budget_->stop_requested()) return true;
    if (--countdown_ == 0) {
      countdown_ = QueryBudget::kCheckpointStride;
      return budget_->Probe();
    }
    return false;
  }

  QueryBudget* budget() const { return budget_; }

 private:
  QueryBudget* budget_;
  uint32_t countdown_ = QueryBudget::kCheckpointStride;
};

}  // namespace rpm

#endif  // RPM_CORE_CANCELLATION_H_
