// Top-level differential-verification harness: generate N seeded cases,
// cross-check each against the oracle / parallel / incremental
// implementations, and shrink every failing case to a minimal
// ready-to-paste fixture.
//
// Exposed on the CLI as `rpminer verify --cases=N --seed=S`; a bounded run
// is wired into ctest (label `verify`) and scripts/verify.sh. The
// invariant catalog the checks enforce is documented in DESIGN.md §5b.

#ifndef RPM_VERIFY_HARNESS_H_
#define RPM_VERIFY_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rpm/core/cancellation.h"
#include "rpm/verify/cross_check.h"

namespace rpm::verify {

struct VerifyOptions {
  uint64_t cases = 200;
  uint64_t seed = 7;
  /// Collect (and shrink) at most this many failing cases before stopping
  /// early — shrinking is the expensive part of a failing run.
  size_t max_failures = 5;
  /// Check toggles, thread count and (for harness self-tests) the
  /// fault-injected miner.
  CrossCheckOptions cross_check;
  /// When set, every generated case is mined at these params instead of
  /// the case's own (CLI: `rpminer verify --fixed-params --per=...`) —
  /// lets one parameter point be hammered across all database regimes.
  std::optional<RpParams> fixed_params;
  /// Cooperative cancellation (SIGINT/SIGTERM): checked between cases; a
  /// cancelled run reports the cases completed so far. Not owned; may be
  /// null.
  const CancellationToken* cancel = nullptr;
};

/// One failing case, fully processed: the divergences observed on the
/// generated database plus the minimized reproduction.
struct CaseFailure {
  uint64_t case_index = 0;
  std::string regime;
  std::vector<Divergence> divergences;
  size_t original_transactions = 0;
  size_t shrunk_transactions = 0;
  /// C++ fixture (RenderFixture) of the *shrunk* database and params.
  std::string fixture;
};

struct VerifyReport {
  uint64_t cases_run = 0;
  uint64_t oracle_checks = 0;
  uint64_t parallel_checks = 0;
  /// Incremental RP-list checks (c) actually executed (tolerant-mode
  /// cases skip it).
  uint64_t streaming_checks = 0;
  /// Query-engine purity/reuse checks executed.
  uint64_t engine_checks = 0;
  /// Windowed ≡ batch-of-window checks executed (exact-model cases only).
  uint64_t windowed_checks = 0;
  std::vector<CaseFailure> failures;
  /// True when the run stopped early on external cancellation.
  bool cancelled = false;

  bool ok() const { return failures.empty(); }
};

/// Runs the harness. Deterministic in (options.cases, options.seed): the
/// same pair replays the same case stream bit-for-bit.
VerifyReport RunVerification(const VerifyOptions& options);

/// Human-readable report: one summary block, then one section per failure
/// with the divergence list, the shrink statistics and the fixture.
std::string FormatReport(const VerifyReport& report,
                         const VerifyOptions& options);

}  // namespace rpm::verify

#endif  // RPM_VERIFY_HARNESS_H_
