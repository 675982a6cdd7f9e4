// Seeded fault injection for the robustness harness (DESIGN.md §7.4).
//
// The injector is the high half of the failpoint framework: it installs a
// process-wide handler (rpm/common/failpoint.h) and decides, per site hit,
// whether that site simulates its failure. Decisions are a pure function
// of (seed, site, per-site hit index), so a failing campaign trial replays
// exactly from its seed.
//
// Failpoint catalog (sites compiled into the library):
//   rptree.alloc     — RP-tree node allocation throws std::bad_alloc
//                      (build, clone and conditional trees).
//   io.read          — reader input stream fails mid-file (CSV/SPMF).
//   threadpool.spawn — std::thread creation fails; ParallelFor degrades
//                      to fewer workers (floor: the calling thread).
//   worker.task      — a mining worker task throws; ParallelFor contains
//                      and rethrows on the caller.
//   clock.skip       — a deadline probe behaves as if the clock jumped
//                      past the deadline (only queries with a timeout).
//   serve.accept     — the query server drops a just-accepted
//                      connection (serve/server.h).
//   serve.read       — a server session's read path fails; that one
//                      connection closes.
//   serve.write      — a server response write fails; that one
//                      connection closes.
//   serve.session.alloc — server session setup fails; the client gets a
//                      structured UNAVAILABLE line, then close.
//
// The campaign (RunFaultCampaign / `rpminer verify --faults=N`) arms the
// injector around end-to-end operations and asserts the library's
// contract: every injected fault surfaces as a clean non-OK Status or a
// governed partial result — never a crash, leak, deadlock, or poisoned
// planner cache.

#ifndef RPM_VERIFY_FAULT_INJECTION_H_
#define RPM_VERIFY_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "rpm/core/cancellation.h"

namespace rpm {

struct FaultInjectionOptions {
  /// Seed for the per-hit fire decision (deterministic replay handle).
  uint64_t seed = 0;
  /// Probability that any given hit fires, in basis points of 10^6
  /// (e.g. 20000 = 2%). Ignored when fire_on_nth is set.
  uint32_t probability_ppm = 20000;
  /// When nonempty, only this exact site may fire.
  std::string site_filter;
  /// When nonzero, fire deterministically on exactly the nth hit of each
  /// (filtered) site instead of probabilistically.
  uint64_t fire_on_nth = 0;
};

/// Process-wide seeded injector. Thread-safe (sites fire from mining
/// workers); a mutex per hit is acceptable because the injector is only
/// armed inside fault campaigns, never in production runs.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Installs the failpoint handler with `options`. Hit/fire counters
  /// reset. Not reentrant — one armed scope at a time.
  void Arm(const FaultInjectionOptions& options);

  /// Removes the handler. Counters survive until the next Arm.
  void Disarm();

  bool armed() const;

  /// Handler entry: true when `site` should simulate a failure now.
  bool ShouldFail(const char* site);

  /// Total fired (simulated) failures since the last Arm.
  uint64_t fires() const;
  /// Total site hits (fired or not) since the last Arm.
  uint64_t hits() const;
  /// Per-site hit/fire counts since the last Arm.
  std::map<std::string, std::pair<uint64_t, uint64_t>> SiteCounts() const;

 private:
  FaultInjector() = default;

  mutable std::mutex mu_;
  bool armed_ = false;
  FaultInjectionOptions options_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> sites_;  // hits/fires
  uint64_t hits_ = 0;
  uint64_t fires_ = 0;
};

/// RAII arm/disarm around one faulted operation.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultInjectionOptions& options) {
    FaultInjector::Instance().Arm(options);
  }
  ~ScopedFaultInjection() { FaultInjector::Instance().Disarm(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

// --- Campaign driver (`rpminer verify --faults=N --seed=S`) ----------------

struct FaultCampaignOptions {
  size_t trials = 200;
  uint64_t seed = 1;
  /// Per-hit fire probability for the probabilistic sites.
  uint32_t probability_ppm = 20000;
  /// Worker threads for the parallel backend under faults.
  size_t parallel_threads = 4;
  /// Stop after this many contract violations.
  size_t max_failures = 5;
  /// Also run each trial's query through an in-process query server with
  /// the serve.* transport failpoints armed (serve/server.h): armed
  /// responses must be bit-identical to ground truth or structured
  /// failures, and the disarmed rerun must be bit-identical — with zero
  /// server aborts or hangs.
  bool serve_trials = true;
  /// Cooperative cancellation (SIGINT/SIGTERM): checked between trials;
  /// a cancelled campaign reports the trials completed so far. Not owned;
  /// may be null.
  const CancellationToken* cancel = nullptr;
};

struct FaultCampaignReport {
  size_t trials_run = 0;
  /// Faults actually fired by the injector across all trials.
  uint64_t faults_injected = 0;
  /// Operations (I/O round-trips, queries) executed while armed.
  size_t faulted_operations = 0;
  /// Operations that saw a fault and recovered with a clean Status.
  size_t clean_recoveries = 0;
  /// Contract violations: escaped exception, wrong post-fault behavior,
  /// or a poisoned planner cache. Empty = pass.
  std::vector<std::string> failures;
  /// True when the campaign stopped early on external cancellation; the
  /// counters then cover the trials that completed.
  bool cancelled = false;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

/// Runs `trials` deterministic fault trials: each generates a verify case,
/// records disarmed ground truth, then runs I/O round-trips and
/// sequential/parallel queries with the injector armed —
/// asserting every injected fault surfaces as a clean Status (or governed
/// truncation) and that a disarmed rerun on the same session still matches
/// ground truth (no poisoned planner cache).
FaultCampaignReport RunFaultCampaign(const FaultCampaignOptions& options);

}  // namespace rpm

#endif  // RPM_VERIFY_FAULT_INJECTION_H_
