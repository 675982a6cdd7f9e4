// mine-sparse and mine-dense: the user-facing `rpminer mine` path, input
// file -> JSON patterns, run through rpm::tools::RunRpminer in a closed
// loop with one caller.
//
// End-to-end run: a --threads=1 reference job fixes the expected output
// digest and the schedule-invariant counters, set-up runs warm-up jobs,
// then jobs run back to back for the measured seconds; every job's output
// and counters are checked against the reference.
//
// Traced run: the same work composed from the layers' public calls
// (read, snapshot, RP-list, RP-tree, clone, mine, export), alternating
// traced and untraced ops so the tracing overhead is measured, plus a
// projection-sweep probe on a tree clone when the job is parallel.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "rpm/analysis/export.h"
#include "rpm/common/cpu_features.h"
#include "rpm/core/cancellation.h"
#include "rpm/core/projection.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/rp_list.h"
#include "rpm/engine/dataset_snapshot.h"
#include "rpm/timeseries/io/spmf_io.h"
#include "rpm/tools/commands.h"

namespace rpmbench {

namespace {

/// Schedule-invariant counters of one job, read back from the `mine`
/// stderr summary.
struct JobCounters {
  unsigned long long patterns = 0;
  unsigned long long merge_calls = 0, merge_runs = 0, merge_ts = 0;
  unsigned long long gate_lists = 0, gate_gaps = 0;
  bool parsed = false;
  bool operator==(const JobCounters&) const = default;
};

JobCounters ParseSummary(const std::string& err) {
  JobCounters c;
  const size_t merge = err.find("[merge ");
  const size_t gate = err.find("[gate ");
  if (merge == std::string::npos || gate == std::string::npos) return c;
  const bool ok =
      std::sscanf(err.c_str(), "%llu recurring patterns", &c.patterns) == 1 &&
      std::sscanf(err.c_str() + merge, "[merge %llu calls / %llu runs / %llu",
                  &c.merge_calls, &c.merge_runs, &c.merge_ts) == 3 &&
      std::sscanf(err.c_str() + gate, "[gate %*s %llu lists / %llu gaps",
                  &c.gate_lists, &c.gate_gaps) == 2;
  c.parsed = ok;
  return c;
}

struct Job {
  int code = -1;
  double seconds = 0.0;
  std::string out;
  std::string err;
};

Job RunJob(const std::string& path, const MineSpec& spec, uint64_t threads) {
  const std::string per = std::to_string(spec.per);
  const std::string min_ps = FormatDouble(spec.min_ps_pct);
  const std::string min_rec = std::to_string(spec.min_rec);
  const std::string thread_flag = std::to_string(threads);
  const char* argv[] = {"rpminer",      "mine",          "--input",
                        path.c_str(),   "--per",         per.c_str(),
                        "--min-ps-pct", min_ps.c_str(),  "--min-rec",
                        min_rec.c_str(), "--threads",    thread_flag.c_str(),
                        "--output-format", "json"};
  std::ostringstream out, err;
  Job job;
  const double start = SteadyNow();
  job.code = rpm::tools::RunRpminer(static_cast<int>(std::size(argv)), argv,
                                    out, err);
  job.seconds = SteadyNow() - start;
  job.out = out.str();
  job.err = err.str();
  return job;
}

/// The reference a job is checked against.
struct Expected {
  uint64_t digest = 0;
  size_t bytes = 0;
  JobCounters counters;
};

/// Checks one job against the reference; counts a failure into `result`.
bool CheckJob(const Job& job, const Expected& expected, RunResult* result) {
  if (job.code != 0) {
    result->Fail("mine job exited " + std::to_string(job.code) + ": " +
                 job.err.substr(0, 200));
    return false;
  }
  if (Digest(job.out) != expected.digest) {
    result->Fail("mine output digest differs from the --threads=1 reference");
    return false;
  }
  if (!(ParseSummary(job.err) == expected.counters)) {
    result->Fail("schedule-invariant counters differ from the reference");
    return false;
  }
  return true;
}

/// Layer figures of one composed op.
struct ComposedOp {
  double wall = 0.0;
  uint64_t digest = 0;
  size_t bytes = 0;
  rpm::RpGrowthStats stats;
  rpm::TreeBuildStats tree;
  size_t candidates = 0;
  size_t items = 0;
  int root = -1;
};

/// The mine job composed from the layers' public calls, in the order and
/// with the settings the CLI's engine path uses (budget with the CLI's
/// cancellation token, tree and mining threads = the job's threads).
ComposedOp RunComposed(const std::string& path, const MineSpec& spec,
                       Tracer* tracer, int op,
                       std::unique_ptr<rpm::PreparedMining>* keep) {
  ComposedOp out;
  rpm::CancellationToken cancel;
  rpm::QueryBudget budget(rpm::ResourceLimits{}, &cancel);
  const double start = SteadyNow();
  const int root = tracer->Begin("op", -1, op);

  int s = tracer->Begin("timeseries.io", root, op);
  rpm::Result<rpm::TransactionDatabase> db =
      rpm::ReadTimestampedSpmfFile(path);
  tracer->End(s);
  if (!db.ok()) return out;

  s = tracer->Begin("engine.snapshot", root, op);
  std::shared_ptr<const rpm::engine::DatasetSnapshot> snapshot =
      rpm::engine::DatasetSnapshot::Create(std::move(*db));
  tracer->End(s);

  rpm::Result<rpm::RpParams> params = rpm::MakeParamsWithMinPsFraction(
      spec.per, spec.min_ps_pct / 100.0, spec.min_rec, snapshot->size());
  if (!params.ok()) return out;

  auto prepared = std::make_unique<rpm::PreparedMining>();
  prepared->params = *params;
  s = tracer->Begin("core.rp_list", root, op);
  prepared->list = rpm::BuildRpList(snapshot->db(), *params, &budget);
  tracer->End(s);
  for (const rpm::RpListEntry& e : prepared->list.candidates()) {
    prepared->items_by_rank.push_back(e.item);
  }
  prepared->num_items = prepared->list.entries().size();
  prepared->num_candidate_items = prepared->items_by_rank.size();

  s = tracer->Begin("core.rp_tree", root, op);
  prepared->tree =
      rpm::BuildRankedTree(snapshot->db(), prepared->items_by_rank, &budget,
                           spec.threads, &prepared->tree_build);
  tracer->End(s);
  if (s >= 0 && prepared->tree_build.partials_merged > 0) {
    // The fold is the build's last phase; place its timer at the end.
    const double end = tracer->spans()[static_cast<size_t>(s)].end;
    tracer->Add("core.rp_tree.fold", end - prepared->tree_build.merge_seconds,
                end, s, op);
  }
  prepared->initial_tree_nodes = prepared->tree.NodeCount();

  s = tracer->Begin("core.rp_tree.clone", root, op);
  rpm::TsPrefixTree clone = prepared->tree.Clone();
  tracer->End(s);

  rpm::RpGrowthOptions options;
  options.num_threads = spec.threads;
  options.budget = &budget;
  s = tracer->Begin("core.rp_growth", root, op);
  rpm::RpGrowthResult mined =
      rpm::MineFromPrepared(*prepared, std::move(clone), *params, options);
  tracer->End(s);

  s = tracer->Begin("analysis.export", root, op);
  std::ostringstream json;
  const rpm::Status written = rpm::analysis::WritePatternsJson(
      mined.patterns, snapshot->dictionary(), &json);
  const std::string bytes = json.str();
  tracer->End(s);
  tracer->End(root);
  out.wall = SteadyNow() - start;
  if (!written.ok() || !mined.status.ok()) return out;

  out.digest = Digest(bytes);
  out.bytes = bytes.size();
  out.stats = mined.stats;
  out.tree = prepared->tree_build;
  out.candidates = prepared->num_candidate_items;
  out.items = prepared->num_items;
  out.root = root;
  *keep = std::move(prepared);
  return out;
}

/// Median self time (ms) of spans called `name` across traced ops.
double MedianSelfMs(const Tracer& tracer, const std::string& name) {
  std::vector<double> samples;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    if (tracer.spans()[i].name == name) {
      samples.push_back(tracer.SelfTimeOf(i) * 1e3);
    }
  }
  return Median(samples);
}

void RunTraced(const RunArgs& args, const MineSpec& spec,
               const std::string& path, const Expected& expected,
               RunResult* result) {
  Tracer tracer(true);
  Tracer untraced(false);
  std::vector<double> traced_wall, untraced_wall, coverage;
  std::vector<double> fold_nodes, paths_per_op;
  ComposedOp last;
  const double start = SteadyNow();
  for (int op = 0; SteadyNow() - start < args.seconds; ++op) {
    // Alternate which twin runs first so drift in machine state cancels.
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (op % 2 == 0);
      std::unique_ptr<rpm::PreparedMining> prepared;
      ComposedOp run = RunComposed(path, spec, traced ? &tracer : &untraced,
                                   op, &prepared);
      ++result->attempted;
      if (run.digest != expected.digest) {
        ++result->failed;
        result->Fail("composed traced job output differs from the reference");
        continue;
      }
      if (!traced) {
        untraced_wall.push_back(run.wall);
        continue;
      }
      traced_wall.push_back(run.wall);
      const Span& root = tracer.spans()[static_cast<size_t>(run.root)];
      double covered = 0.0;
      for (const Span& child : tracer.spans()) {
        if (child.parent == run.root) covered += child.duration();
      }
      coverage.push_back(covered / root.duration());
      fold_nodes.push_back(static_cast<double>(run.tree.merged_nodes));
      if (spec.threads > 1) {
        // The parallel miner sweeps projections inside MineFromPrepared;
        // a probe on a clone times that sweep on its own (outside the op).
        rpm::TsPrefixTree clone = prepared->tree.Clone();
        rpm::MergeCounters counters;
        const int probe = tracer.Begin("core.projection", -1, op);
        std::vector<rpm::SuffixProjection> projections =
            rpm::ProjectSuffixItems(&clone, &counters);
        tracer.End(probe);
        size_t paths = 0;
        for (const rpm::SuffixProjection& p : projections) {
          paths += p.paths.size();
        }
        paths_per_op.push_back(static_cast<double>(paths));
      }
      last = run;
    }
  }
  const rpm::RpGrowthStats& st = last.stats;
  const double threads = static_cast<double>(std::max<size_t>(1, st.threads_used));
  result->Set("timeseries.io.parse_ms", MedianSelfMs(tracer, "timeseries.io"),
              "ms");
  result->Set("timeseries.io.bytes",
              static_cast<double>(std::filesystem::file_size(path)), "B");
  result->Set("engine.snapshot.index_ms",
              MedianSelfMs(tracer, "engine.snapshot"), "ms");
  result->Set("core.rp_list.scan_ms", MedianSelfMs(tracer, "core.rp_list"),
              "ms");
  result->Set("core.rp_list.candidate_share",
              Ratio{static_cast<double>(last.candidates),
                    static_cast<double>(last.items)}
                  .value(),
              "ratio");
  result->Set("core.rp_tree.build_ms", MedianSelfMs(tracer, "core.rp_tree"),
              "ms");
  result->Set("core.rp_tree.fold_ms",
              MedianSelfMs(tracer, "core.rp_tree.fold"), "ms");
  result->Set("core.rp_tree.clone_ms",
              MedianSelfMs(tracer, "core.rp_tree.clone"), "ms");
  result->Set("core.rp_tree.nodes",
              static_cast<double>(st.initial_tree_nodes), "count");
  result->Set("core.rp_tree.fold_nodes", Median(fold_nodes), "count");
  result->Set("core.projection.sweep_ms",
              MedianSelfMs(tracer, "core.projection"), "ms");
  result->Set("core.projection.paths", Median(paths_per_op), "count");
  result->Set("core.rp_growth.mine_ms", MedianSelfMs(tracer, "core.rp_growth"),
              "ms");
  result->Set("core.rp_growth.worker_busy_ratio",
              Ratio{st.mine_cpu_seconds, st.mine_seconds * threads}.value(),
              "ratio");
  result->Set("core.rp_growth.examined",
              static_cast<double>(st.patterns_examined), "count");
  result->Set("core.rp_growth.yield",
              Ratio{static_cast<double>(st.patterns_emitted),
                    static_cast<double>(st.patterns_examined)}
                  .value(),
              "ratio");
  result->Set("core.rp_growth.conditional_trees",
              static_cast<double>(st.conditional_trees), "count");
  result->Set("core.rp_growth.scratch_bytes_total",
              static_cast<double>(st.scratch_bytes_total), "B");
  result->Set("core.ts_merge.calls", static_cast<double>(st.merge_invocations),
              "count");
  result->Set("core.ts_merge.runs", static_cast<double>(st.runs_merged),
              "count");
  result->Set("core.ts_merge.timestamps",
              static_cast<double>(st.timestamps_merged), "count");
  result->Set("core.ts_merge.avg_run_len",
              Ratio{static_cast<double>(st.timestamps_merged),
                    static_cast<double>(st.runs_merged)}
                  .value(),
              "count");
  result->Set("core.measures.gate_gaps",
              static_cast<double>(st.gate_gaps_scanned), "count");
  result->Set("core.measures.simd_share",
              Ratio{static_cast<double>(st.gate_gaps_simd),
                    static_cast<double>(st.gate_gaps_scanned)}
                  .value(),
              "ratio");
  result->Set("analysis.export.write_ms",
              MedianSelfMs(tracer, "analysis.export"), "ms");
  result->Set("analysis.export.bytes", static_cast<double>(last.bytes), "B");
  result->Set("trace.coverage", Median(coverage), "ratio");
  const double untraced_p50 = Median(untraced_wall);
  result->Set("trace.overhead_ratio",
              Ratio{Median(traced_wall) - untraced_p50, untraced_p50}.value(),
              "ratio");

  result->details.Add("traced_ops", static_cast<uint64_t>(traced_wall.size()));
  result->details.Add("untraced_ops",
                      static_cast<uint64_t>(untraced_wall.size()));
  result->details.Add("traced_wall_p50_ms", Median(traced_wall) * 1e3);
  result->details.Add("untraced_wall_p50_ms", untraced_p50 * 1e3);
  result->invariants.Add("tree_nodes",
                         static_cast<uint64_t>(st.initial_tree_nodes));
  result->invariants.Add("fold_nodes",
                         static_cast<uint64_t>(last.tree.merged_nodes));
  result->invariants.Add("examined", static_cast<uint64_t>(st.patterns_examined));
  result->invariants.Add("conditional_trees",
                         static_cast<uint64_t>(st.conditional_trees));
  result->invariants.Add("gate_lists",
                         static_cast<uint64_t>(st.gate_lists_scanned));
  result->invariants.Add("projection_paths",
                         static_cast<uint64_t>(Median(paths_per_op)));
}

}  // namespace

RunResult RunMineWorkload(const RunArgs& args) {
  const MineSpec& spec = args.workload == kSparse.workload ? kSparse : kDense;
  const std::string path = args.input_dir + "/" + spec.file;
  RunResult result;

  // Reference: the sequential job fixes the expected bytes and counters.
  const Job reference = RunJob(path, spec, 1);
  Expected expected;
  expected.digest = Digest(reference.out);
  expected.bytes = reference.out.size();
  expected.counters = ParseSummary(reference.err);
  if (reference.code != 0 || !expected.counters.parsed) {
    result.Fail("reference job failed: " + reference.err.substr(0, 300));
    return result;
  }
  result.invariants.Add("output_digest", HexDigest(expected.digest));
  result.invariants.Add("output_bytes", static_cast<uint64_t>(expected.bytes));
  result.invariants.Add("patterns", static_cast<uint64_t>(expected.counters.patterns));
  result.invariants.Add("merge_calls", static_cast<uint64_t>(expected.counters.merge_calls));
  result.invariants.Add("merge_runs", static_cast<uint64_t>(expected.counters.merge_runs));
  result.invariants.Add("merge_timestamps", static_cast<uint64_t>(expected.counters.merge_ts));
  result.invariants.Add("gate_gaps", static_cast<uint64_t>(expected.counters.gate_gaps));
  result.details.Add("job", std::string("rpminer mine --per ") +
                                std::to_string(spec.per) + " --min-ps-pct " +
                                FormatDouble(spec.min_ps_pct) + " --min-rec " +
                                std::to_string(spec.min_rec) + " --threads " +
                                std::to_string(spec.threads) +
                                " --output-format json");

  if (args.trace) {
    RunTraced(args, spec, path, expected, &result);
    return result;
  }

  // Set-up: warm-up jobs; setup_s is their median.
  std::vector<double> setup;
  for (int i = 0; i < 3; ++i) {
    const Job warm = RunJob(path, spec, spec.threads);
    setup.push_back(warm.seconds);
    if (!CheckJob(warm, expected, &result)) return result;
  }

  std::vector<double> latency;
  const double cpu0 = ProcessCpuSeconds();
  const double start = SteadyNow();
  while (SteadyNow() - start < args.seconds) {
    const Job job = RunJob(path, spec, spec.threads);
    ++result.attempted;
    if (!CheckJob(job, expected, &result)) {
      ++result.failed;
      continue;
    }
    latency.push_back(job.seconds);
  }
  const double cpu = ProcessCpuSeconds() - cpu0;
  double busy = 0.0;
  for (double l : latency) busy += l;

  const size_t n = latency.size();
  result.Set("setup_s", Median(setup), "s");
  result.Set("latency_p50_ms", Median(latency) * 1e3, "ms");
  result.Set("throughput_ops_s", Ratio{static_cast<double>(n), busy}.value(),
             "1/s");
  result.Set("cpu_ms_per_op",
             Ratio{cpu * 1e3, static_cast<double>(result.attempted)}.value(),
             "ms");
  result.Set("peak_rss_mb", ProcessPeakRssMb(), "MB");
  AddLatencyDetails(latency, &result);
  result.details.Add("setup_runs", static_cast<uint64_t>(setup.size()));
  result.details.Add("simd", rpm::SimdLevelName(rpm::ActiveSimdLevel()));
  return result;
}

}  // namespace rpmbench
