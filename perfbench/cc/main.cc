// rpmbench: the rpminer benchmark program. See perfbench/README.md.
//
//   rpmbench gen --workload W --seed N --dir D
//   rpmbench run --workload W --seed N --seconds S --trace 0|1 --inputs D
//                [--rpminer PATH]
//   rpmbench selftest
//
// `run` prints one JSON line: the workload's metrics plus the details,
// input shape and schedule-invariant counters run.py records and checks.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"
#include "rpm/common/cpu_features.h"

namespace {

using rpmbench::JsonObject;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"latency_p50_ms", "ms"},
    {"throughput_ops_s", "1/s"}, {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics of the traced run, in BENCHMARK.json order. A
/// workload that does not exercise a layer reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"timeseries.io.parse_ms", "ms"},
    {"timeseries.io.bytes", "B"},
    {"engine.snapshot.index_ms", "ms"},
    {"core.rp_list.scan_ms", "ms"},
    {"core.rp_list.candidate_share", "ratio"},
    {"core.rp_tree.build_ms", "ms"},
    {"core.rp_tree.fold_ms", "ms"},
    {"core.rp_tree.clone_ms", "ms"},
    {"core.rp_tree.nodes", "count"},
    {"core.rp_tree.fold_nodes", "count"},
    {"core.projection.sweep_ms", "ms"},
    {"core.projection.paths", "count"},
    {"core.rp_growth.mine_ms", "ms"},
    {"core.rp_growth.worker_busy_ratio", "ratio"},
    {"core.rp_growth.examined", "count"},
    {"core.rp_growth.yield", "ratio"},
    {"core.rp_growth.conditional_trees", "count"},
    {"core.rp_growth.scratch_bytes_total", "B"},
    {"core.ts_merge.calls", "count"},
    {"core.ts_merge.runs", "count"},
    {"core.ts_merge.timestamps", "count"},
    {"core.ts_merge.avg_run_len", "count"},
    {"core.measures.gate_gaps", "count"},
    {"core.measures.simd_share", "ratio"},
    {"analysis.export.write_ms", "ms"},
    {"analysis.export.bytes", "B"},
    {"engine.planner.tree_reused_share", "ratio"},
    {"engine.planner.tree_builds", "count"},
    {"serve.protocol.parse_us", "us"},
    {"serve.service.hit_ms", "ms"},
    {"serve.service.miss_ms", "ms"},
    {"serve.service.swap_ms", "ms"},
    {"serve.server.transport_ms", "ms"},
    {"serve.admission.queued_share", "ratio"},
    {"serve.admission.rejected", "count"},
    {"serve.result_cache.hit_ratio", "ratio"},
    {"serve.result_cache.coalesced", "count"},
    {"serve.result_cache.evictions", "count"},
    {"core.windowed_miner.maintain_ms", "ms"},
    {"core.windowed_miner.submine_ms", "ms"},
    {"core.windowed_miner.affected_share", "ratio"},
    {"core.windowed_miner.subproblem_txns", "count"},
    {"core.windowed_miner.nodes_retired", "count"},
    {"core.windowed_miner.compactions", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"error_ratio", "ratio"},
};

/// Reorders `result.metrics` to the canonical list of its run mode. A
/// metric the workload did not set reports 0; a metric outside the list
/// is a bug in rpmbench.
template <size_t N>
void Canonicalize(const MetricSpec (&specs)[N], rpmbench::RunResult* result) {
  std::map<std::string, double> set;
  for (const rpmbench::Metric& m : result->metrics) {
    bool known = false;
    for (const MetricSpec& s : specs) known = known || m.name == s.name;
    if (!known) result->Fail("metric outside the benchmark's list: " + m.name);
    set[m.name] = m.value;
  }
  result->metrics.clear();
  for (const MetricSpec& s : specs) {
    auto it = set.find(s.name);
    result->metrics.push_back(
        {s.name, it == set.end() ? 0.0 : it->second, s.unit});
  }
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    flags[key] = argv[i + 1];
  }
  return flags;
}

std::string Render(const rpmbench::RunResult& result,
                   const std::string& shape) {
  JsonObject metrics;
  for (const rpmbench::Metric& m : result.metrics) {
    metrics.Add(m.name, JsonObject().Add("value", m.value).Add("unit", m.unit));
  }
  std::string errors = "[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    errors += (i ? ", " : "") + rpmbench::Quote(result.errors[i]);
  }
  errors += "]";
  JsonObject header;
  header.Add("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  header.Add("simd", rpm::SimdLevelName(rpm::ActiveSimdLevel()));
  JsonObject out;
  out.Add("correct", result.correct);
  out.Add("attempted", result.attempted);
  out.Add("failed", result.failed);
  out.Add("metrics", metrics);
  out.Add("header", header);
  out.AddRaw("input_shape", shape.empty() ? "{}" : shape);
  out.Add("details", result.details);
  out.Add("invariants", result.invariants);
  out.AddRaw("errors", errors);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: rpmbench gen|run|selftest [flags]\n");
    return 1;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  if (command == "selftest") return rpmbench::RunSelfTests() ? 0 : 1;
  if (command == "gen") {
    return rpmbench::GenerateInputs(flags["workload"],
                                    std::strtoull(flags["seed"].c_str(),
                                                  nullptr, 10),
                                    flags["dir"])
               ? 0
               : 1;
  }
  if (command != "run") {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 1;
  }
  if (!rpmbench::RunSelfTests()) return 1;

  rpmbench::RunArgs args;
  args.workload = flags["workload"];
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  args.trace = flags["trace"] == "1";
  args.input_dir = flags["inputs"];
  args.rpminer = flags["rpminer"];

  rpmbench::RunResult result;
  if (args.workload == "mine-sparse" || args.workload == "mine-dense") {
    result = rpmbench::RunMineWorkload(args);
  } else if (args.workload == "serve-mixed") {
    result = rpmbench::RunServeWorkload(args);
  } else if (args.workload == "window-slide") {
    result = rpmbench::RunWindowWorkload(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 1;
  }
  if (result.attempted == 0) {
    // Nothing ran (set-up failed): count the run itself as the failed op.
    result.attempted = 1;
    result.failed = 1;
    result.correct = false;
  }
  const double error_ratio =
      rpmbench::Ratio{static_cast<double>(result.failed),
                      static_cast<double>(result.attempted)}
          .value();
  result.details.Add("error_ratio", error_ratio);
  if (args.trace) {
    result.Set("error_ratio", error_ratio, "ratio");
    Canonicalize(kPerLayer, &result);
  } else {
    if (result.correct && result.metrics.size() != std::size(kEndToEnd)) {
      result.Fail("workload did not report every end-to-end metric");
    }
    Canonicalize(kEndToEnd, &result);
  }
  std::string shape = rpmbench::ReadFile(args.input_dir + "/shape.json");
  while (!shape.empty() && (shape.back() == '\n')) shape.pop_back();
  std::printf("%s\n", Render(result, shape).c_str());
  return 0;
}
