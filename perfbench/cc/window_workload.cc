// window-slide: WindowedMiner::ApplyDelta over the Shop-14 clickstream, a
// one-day window sliding by one-hour deltas, in a closed loop with one
// caller.
//
// The timed phase is a sequence of passes. A pass starts a fresh miner,
// fills its first window with the day's 24 priming deltas (the set-up,
// untimed) and then applies one week of steady-state slides (168 timed
// deltas). Every pass replays the same week, so runs of any speed measure
// the same delta population; walking down a long stream instead let
// faster runs reach cheaper deltas and moved the median 25 % between runs.
//
// Correctness: every delta must apply; every kCheckEvery-th timed delta
// and the final window are compared with
// MineRecurringPatterns(WindowSnapshot()) outside the timed region.
//
// Traced run: two identical miners take every delta, one traced and one
// not (alternating which goes first), for the maintenance counters and
// the tracing overhead.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "rpm/core/windowed_miner.h"
#include "rpm/timeseries/io/spmf_io.h"

namespace rpmbench {

namespace {

constexpr size_t kPrimingDeltas = kWindowMinutes / kDeltaMinutes;
constexpr size_t kPassDeltas = 7 * 24;
constexpr size_t kCheckEvery = 100;

using Deltas = std::vector<std::vector<rpm::Transaction>>;

rpm::RpParams Params() {
  rpm::RpParams p;
  p.period = kWindowPer;
  p.min_ps = kWindowMinPs;
  p.min_rec = kWindowMinRec;
  return p;
}

Deltas SplitDeltas(const rpm::TransactionDatabase& db) {
  Deltas deltas;
  if (db.empty()) return deltas;
  const rpm::Timestamp origin = db.start_ts();
  for (const rpm::Transaction& tr : db.transactions()) {
    const size_t k = static_cast<size_t>((tr.ts - origin) / kDeltaMinutes);
    if (deltas.size() <= k) deltas.resize(k + 1);
    deltas[k].push_back(tr);
  }
  return deltas;
}

/// A fresh miner with its first window filled.
std::unique_ptr<rpm::WindowedMiner> Primed(const Deltas& deltas) {
  auto miner = std::make_unique<rpm::WindowedMiner>(Params(), kWindowMinutes);
  for (size_t k = 0; k < kPrimingDeltas; ++k) miner->ApplyDelta(deltas[k]);
  return miner;
}

bool MatchesBatch(const rpm::WindowedMiner& miner) {
  const rpm::RpGrowthResult batch =
      rpm::MineRecurringPatterns(miner.WindowSnapshot(), miner.params());
  return batch.patterns == miner.patterns();
}

/// Live distinct items of the window, maintained beside the miner.
class LiveItems {
 public:
  void Add(const rpm::Transaction& tr) {
    window_.push_back(tr);
    for (rpm::ItemId i : tr.items) ++count_[i];
  }
  void ExpireBefore(rpm::Timestamp cutoff) {
    while (head_ < window_.size() && window_[head_].ts < cutoff) {
      for (rpm::ItemId i : window_[head_].items) {
        if (--count_[i] == 0) count_.erase(i);
      }
      ++head_;
    }
  }
  size_t size() const { return count_.size(); }

 private:
  std::vector<rpm::Transaction> window_;
  size_t head_ = 0;
  std::map<rpm::ItemId, uint64_t> count_;
};

/// Counters of a miner after one full pass (deterministic).
void AddCounters(const rpm::WindowedMiner& miner, RunResult* result) {
  const rpm::WindowedCounters& c = miner.counters();
  const rpm::RpGrowthStats& s = miner.mining_stats();
  result->invariants.Add("deltas", c.deltas_applied);
  result->invariants.Add("timestamps_appended", c.timestamps_appended);
  result->invariants.Add("timestamps_retired", c.timestamps_retired);
  result->invariants.Add("nodes_retired", c.nodes_retired);
  result->invariants.Add("compactions", c.compactions);
  result->invariants.Add("affected_items", c.affected_items);
  result->invariants.Add("subproblem_transactions", c.subproblem_transactions);
  result->invariants.Add("merge_calls", static_cast<uint64_t>(s.merge_invocations));
  result->invariants.Add("merge_timestamps", static_cast<uint64_t>(s.timestamps_merged));
  result->invariants.Add("gate_gaps", static_cast<uint64_t>(s.gate_gaps_scanned));
  result->invariants.Add("patterns", static_cast<uint64_t>(miner.patterns().size()));
}

/// Counter sums over the timed deltas of every pass.
struct Totals {
  double subproblem_txns = 0, nodes_retired = 0, compactions = 0;
  double merge_calls = 0, merge_runs = 0, merge_ts = 0;
  double gate_gaps = 0, gate_simd = 0;
  double examined = 0, emitted = 0, conditional_trees = 0;

  /// Adds what `miner` did since `c0` / `s0` were taken.
  void Add(const rpm::WindowedMiner& miner, const rpm::WindowedCounters& c0,
           const rpm::RpGrowthStats& s0) {
    const rpm::WindowedCounters& c = miner.counters();
    const rpm::RpGrowthStats& s = miner.mining_stats();
    auto d = [](auto after, auto before) {
      return static_cast<double>(after) - static_cast<double>(before);
    };
    subproblem_txns += d(c.subproblem_transactions, c0.subproblem_transactions);
    nodes_retired += d(c.nodes_retired, c0.nodes_retired);
    compactions += d(c.compactions, c0.compactions);
    merge_calls += d(s.merge_invocations, s0.merge_invocations);
    merge_runs += d(s.runs_merged, s0.runs_merged);
    merge_ts += d(s.timestamps_merged, s0.timestamps_merged);
    gate_gaps += d(s.gate_gaps_scanned, s0.gate_gaps_scanned);
    gate_simd += d(s.gate_gaps_simd, s0.gate_gaps_simd);
    examined += d(s.patterns_examined, s0.patterns_examined);
    emitted += d(s.patterns_emitted, s0.patterns_emitted);
    conditional_trees += d(s.conditional_trees, s0.conditional_trees);
  }
};

void RunTraced(const RunArgs& args, const Deltas& deltas, RunResult* result) {
  Tracer tracer(true), untraced(false);
  std::vector<double> maintain_ms, submine_ms, traced_wall, untraced_wall,
      coverage;
  double affected = 0.0, live_sum = 0.0;
  Totals totals;
  size_t ops = 0;
  std::unique_ptr<rpm::WindowedMiner> miners[2];
  const double start = SteadyNow();
  while (SteadyNow() - start < args.seconds) {
    LiveItems live;
    for (auto& m : miners) m = Primed(deltas);
    for (size_t k = 0; k < kPrimingDeltas; ++k) {
      for (const rpm::Transaction& tr : deltas[k]) live.Add(tr);
    }
    live.ExpireBefore(miners[0]->low_watermark());
    const rpm::WindowedCounters c0 = miners[0]->counters();
    const rpm::RpGrowthStats s0 = miners[0]->mining_stats();
    for (size_t k = kPrimingDeltas; k < kPrimingDeltas + kPassDeltas &&
                                    SteadyNow() - start < args.seconds;
         ++k) {
      const int op = static_cast<int>(ops);
      for (int j = 0; j < 2; ++j) {
        const int t = (j + op) % 2;
        Tracer* tr = t == 0 ? &tracer : &untraced;
        const double begin = SteadyNow();
        const int root = tr->Begin("op", -1, op);
        const int span = tr->Begin("core.windowed_miner", root, op);
        const rpm::PatternDelta d = miners[t]->ApplyDelta(deltas[k]);
        tr->End(span);
        tr->End(root);
        const double wall = SteadyNow() - begin;
        ++result->attempted;
        if (!d.applied || !d.status.ok()) {
          ++result->failed;
          result->Fail("delta " + std::to_string(k) + " refused: " +
                       d.status.ToString());
          continue;
        }
        if (t == 1) {
          untraced_wall.push_back(wall);
          continue;
        }
        traced_wall.push_back(wall);
        coverage.push_back(
            tracer.spans()[static_cast<size_t>(span)].duration() /
            tracer.spans()[static_cast<size_t>(root)].duration());
        maintain_ms.push_back(d.maintain_seconds * 1e3);
        submine_ms.push_back(d.mine_seconds * 1e3);
        for (const rpm::Transaction& txn : deltas[k]) live.Add(txn);
        live.ExpireBefore(miners[0]->low_watermark());
        affected += static_cast<double>(d.affected_items);
        live_sum += static_cast<double>(live.size());
      }
      ++ops;
      if (miners[0]->patterns() != miners[1]->patterns()) {
        ++result->failed;
        result->Fail("traced and untraced miners diverged at delta " +
                     std::to_string(k));
      }
    }
    totals.Add(*miners[0], c0, s0);
  }
  if (!MatchesBatch(*miners[0])) {
    ++result->failed;
    result->Fail("final window differs from MineRecurringPatterns");
  }
  auto per = [&](double total) {
    return Ratio{total, static_cast<double>(ops)}.value();
  };
  result->Set("core.windowed_miner.maintain_ms", Median(maintain_ms), "ms");
  result->Set("core.windowed_miner.submine_ms", Median(submine_ms), "ms");
  result->Set("core.windowed_miner.affected_share",
              Ratio{affected, live_sum}.value(), "ratio");
  result->Set("core.windowed_miner.subproblem_txns",
              per(totals.subproblem_txns), "count");
  result->Set("core.windowed_miner.nodes_retired", per(totals.nodes_retired),
              "count");
  result->Set("core.windowed_miner.compactions", per(totals.compactions),
              "count");
  result->Set("core.ts_merge.calls", per(totals.merge_calls), "count");
  result->Set("core.ts_merge.runs", per(totals.merge_runs), "count");
  result->Set("core.ts_merge.timestamps", per(totals.merge_ts), "count");
  result->Set("core.ts_merge.avg_run_len",
              Ratio{totals.merge_ts, totals.merge_runs}.value(), "count");
  result->Set("core.measures.gate_gaps", per(totals.gate_gaps), "count");
  result->Set("core.measures.simd_share",
              Ratio{totals.gate_simd, totals.gate_gaps}.value(), "ratio");
  result->Set("core.rp_growth.examined", per(totals.examined), "count");
  result->Set("core.rp_growth.yield",
              Ratio{totals.emitted, totals.examined}.value(), "ratio");
  result->Set("core.rp_growth.conditional_trees",
              per(totals.conditional_trees), "count");
  result->Set("trace.coverage", Median(coverage), "ratio");
  const double untraced_p50 = Median(untraced_wall);
  result->Set("trace.overhead_ratio",
              Ratio{Median(traced_wall) - untraced_p50, untraced_p50}.value(),
              "ratio");
  result->details.Add("traced_deltas", static_cast<uint64_t>(ops));
}

}  // namespace

RunResult RunWindowWorkload(const RunArgs& args) {
  RunResult result;
  rpm::Result<rpm::TransactionDatabase> db =
      rpm::ReadTimestampedSpmfFile(args.input_dir + "/" + kStreamFile);
  if (!db.ok()) {
    result.Fail("cannot read the stream: " + db.status().ToString());
    return result;
  }
  const Deltas deltas = SplitDeltas(*db);
  if (deltas.size() < kPrimingDeltas + kPassDeltas) {
    result.Fail("the stream is shorter than one pass");
    return result;
  }
  if (args.trace) {
    RunTraced(args, deltas, &result);
    return result;
  }

  // Set-up: fill the first window, five times.
  std::vector<double> setup;
  for (int i = 0; i < 5; ++i) {
    const double start = SteadyNow();
    Primed(deltas);
    setup.push_back(SteadyNow() - start);
  }

  std::vector<double> latency;
  double busy = 0.0, untimed_cpu = 0.0;
  const double cpu0 = ProcessCpuSeconds();
  std::unique_ptr<rpm::WindowedMiner> miner;
  size_t k = kPrimingDeltas + kPassDeltas;
  while (busy < args.seconds) {
    if (k == kPrimingDeltas + kPassDeltas) {
      // Next pass: its priming is set-up, outside the timed region.
      if (miner != nullptr && latency.size() == kPassDeltas) {
        AddCounters(*miner, &result);
      }
      const double c = ProcessCpuSeconds();
      miner = Primed(deltas);
      untimed_cpu += ProcessCpuSeconds() - c;
      k = kPrimingDeltas;
    }
    const double begin = SteadyNow();
    const rpm::PatternDelta d = miner->ApplyDelta(deltas[k]);
    const double seconds = SteadyNow() - begin;
    ++result.attempted;
    ++k;
    if (!d.applied || !d.status.ok()) {
      ++result.failed;
      result.Fail("delta " + std::to_string(k - 1) + " refused: " +
                  d.status.ToString());
      continue;
    }
    latency.push_back(seconds);
    busy += seconds;
    if (latency.size() % kCheckEvery == 0) {
      const double c = ProcessCpuSeconds();
      if (!MatchesBatch(*miner)) {
        ++result.failed;
        result.Fail("window after delta " + std::to_string(k - 1) +
                    " differs from MineRecurringPatterns");
      }
      untimed_cpu += ProcessCpuSeconds() - c;
    }
  }
  const double cpu = ProcessCpuSeconds() - cpu0 - untimed_cpu;
  if (!MatchesBatch(*miner)) {
    ++result.failed;
    result.Fail("final window differs from MineRecurringPatterns");
  }

  result.Set("setup_s", Median(setup), "s");
  result.Set("latency_p50_ms", Median(latency) * 1e3, "ms");
  result.Set("throughput_ops_s",
             Ratio{static_cast<double>(latency.size()), busy}.value(), "1/s");
  result.Set("cpu_ms_per_op",
             Ratio{cpu * 1e3, static_cast<double>(result.attempted)}.value(),
             "ms");
  result.Set("peak_rss_mb", ProcessPeakRssMb(), "MB");
  AddLatencyDetails(latency, &result);
  result.details.Add("passes",
                     Ratio{static_cast<double>(latency.size()),
                           static_cast<double>(kPassDeltas)}
                         .value());
  result.details.Add("setup_runs", static_cast<uint64_t>(setup.size()));
  return result;
}

}  // namespace rpmbench
