// One definition of the mining-threshold flags for every entry point.
//
// `rpminer mine`, `rpminer verify --fixed-params`, `rpminer compare` and
// the --queries multi-query path had been growing their own copies of the
// per/minPS/minRec flag set; this header is now the single place the flag
// names, defaults and the minPS resolution rule live, so the subcommands
// cannot drift apart (defaults are regression-pinned in
// tests/mining_flags_test.cc).

#ifndef RPM_TOOLS_MINING_FLAGS_H_
#define RPM_TOOLS_MINING_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "rpm/common/flags.h"
#include "rpm/common/status.h"
#include "rpm/engine/executor.h"
#include "rpm/engine/query.h"

namespace rpm::tools {

/// The shared threshold/filter flag set with its canonical defaults.
/// Mutate fields *before* Register() to present different defaults
/// (compare keeps its dataset-scale per/min-ps-pct) — the resolution
/// rules stay shared either way.
struct MiningQueryFlags {
  int64_t per = 1;           ///< --per
  uint64_t min_ps = 0;       ///< --min-ps (0 resolves to 1)
  double min_ps_pct = -1.0;  ///< --min-ps-pct (>= 0 overrides --min-ps)
  uint64_t min_rec = 1;      ///< --min-rec
  uint64_t tolerance = 0;    ///< --tolerance
  uint64_t top_k = 0;        ///< --top-k
  uint64_t max_len = 0;      ///< --max-length
  bool closed = false;       ///< --closed
  bool maximal = false;      ///< --maximal
  // Resource governance (DESIGN.md §7); 0 = unlimited.
  uint64_t timeout_ms = 0;     ///< --timeout-ms
  uint64_t max_memory_mb = 0;  ///< --max-memory-mb
  uint64_t max_patterns = 0;   ///< --max-patterns
  // Sliding-window model (--backend=windowed); 0 = not windowed.
  int64_t window = 0;  ///< --window
  uint64_t delta = 0;  ///< --delta

  /// Registers all fourteen flags on `parser`, using the current field
  /// values as the advertised defaults. `this` must outlive
  /// parser.Parse().
  void Register(FlagParser* parser);

  /// Resolves the (parsed) fields against a database of `db_size`
  /// transactions: --min-ps-pct >= 0 sets minPS = ceil(pct/100 * db_size),
  /// a zero minPS becomes 1, and the result is validated. The returned
  /// query's params.min_rec is the flag value even when top_k > 0 (the
  /// descent overrides it, matching `rpminer mine`).
  Result<engine::Query> ToQuery(size_t db_size) const;
};

/// One resolved line of a --queries file.
struct ParsedQueryLine {
  engine::Query query;
  engine::BackendKind backend = engine::BackendKind::kSequential;
  /// Worker threads for the parallel backend (engine::ExecOptions).
  uint64_t threads = 0;
};

/// Parses one --queries file line — the `rpminer mine` threshold flags
/// plus `--backend=sequential|parallel|windowed` and `--threads=N` —
/// with exactly the shared defaults and minPS resolution. Tokens are
/// whitespace-separated (no quoting; `--flag=value` form recommended).
/// The caller strips blank lines and '#' comments.
Result<ParsedQueryLine> ParseMiningQuery(const std::string& line,
                                         size_t db_size);

}  // namespace rpm::tools

#endif  // RPM_TOOLS_MINING_FLAGS_H_
