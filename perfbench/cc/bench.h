// Shared declarations of rpmbench, the rpminer benchmark program.
//
// rpmbench has three subcommands (main.cc): `gen` writes one workload's
// seeded input files, `run` measures one workload, and `selftest` checks
// the arithmetic below. run.py builds rpmbench, calls `gen` and `run`
// in separate processes (so input generation never shows in the measured
// process's CPU or peak memory) and prints the final result line.
#ifndef RPMBENCH_BENCH_H_
#define RPMBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rpmbench {

// ---- Arithmetic (arith.cc) -------------------------------------------------

/// Nearest-rank q-percentile (q in (0, 1]) of `samples`: the value at
/// 1-based rank ceil(q * n) of the sorted samples. 0 for no samples.
double Percentile(std::vector<double> samples, double q);

/// Samples ranked strictly above the q-percentile: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// The percentile rule: a q-percentile of n samples is reported as a tail
/// figure only when at least 10 samples lie beyond it.
bool PercentileResolved(size_t n, double q);

/// A ratio that keeps its base, so every reported share can be audited.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  /// num / den, or 0 when the base is empty.
  double value() const { return den > 0.0 ? num / den : 0.0; }
};

/// One request of an open-loop schedule, in seconds since the schedule's
/// origin. Latency runs from the due time, so a stall also charges the
/// wait it imposes on requests due behind it (no coordinated omission).
struct OpenLoopSample {
  double due = 0.0;   ///< When the schedule says the request is sent.
  double sent = 0.0;  ///< When the generator actually wrote it.
  double done = 0.0;  ///< When its reply was fully read.
  double latency() const { return done - due; }
  double lateness() const { return sent - due; }
};

/// One traced interval: a call into a layer made by the benchmark.
struct Span {
  std::string name;
  double start = 0.0;  ///< Seconds since the tracer's origin.
  double end = 0.0;
  int parent = -1;     ///< Index of the enclosing span, -1 for a root.
  int op = -1;         ///< Op the span belongs to.
  double duration() const { return end - start; }
};

/// Duration of [start, end) not covered by the union of `children`
/// (each clipped to the parent interval; overlaps counted once).
double SelfTime(double start, double end,
                std::vector<std::pair<double, double>> children);

/// In-memory span recorder. A disabled tracer records nothing and costs
/// one branch per call, so one code path serves traced and untraced ops.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  /// Seconds since the tracer was made (steady clock).
  double Now() const;
  /// Opens a span; returns its index (-1 when disabled).
  int Begin(const std::string& name, int parent, int op);
  void End(int span);
  /// Records an interval measured elsewhere (e.g. a phase timer the
  /// program returns) as a closed span.
  int Add(const std::string& name, double start, double end, int parent,
          int op);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of span `index`: its duration minus its children.
  double SelfTimeOf(size_t index) const;

 private:
  bool enabled_;
  int64_t origin_ns_;
  std::vector<Span> spans_;
};

// ---- Result assembly ------------------------------------------------------

/// Minimal ordered JSON object writer.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, int value) {
    return Add(key, static_cast<uint64_t>(value < 0 ? 0 : value));
  }
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& Add(const std::string& key, const JsonObject& value);
  /// Inserts an already-rendered JSON value.
  JsonObject& AddRaw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Formats a double with full round-trip precision.
std::string FormatDouble(double value);

/// Renders `text` as a quoted JSON string.
std::string Quote(const std::string& text);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one `run` reports; main.cc renders it as one JSON line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  JsonObject details;     ///< Sample counts, lateness, realised mix, ...
  JsonObject invariants;  ///< Schedule-invariant counters (drift check).
  std::vector<std::string> errors;  ///< First few failure descriptions.

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
};

// ---- Workloads ------------------------------------------------------------

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string input_dir;  ///< Where `gen` wrote this workload's inputs.
  std::string rpminer;    ///< Path of the rpminer binary (serve-mixed).
};

/// Writes the inputs of `workload` for `seed` into `dir` (created by the
/// caller), plus `shape.json` describing them. Returns false (after
/// printing why) on an unknown workload or a write failure.
bool GenerateInputs(const std::string& workload, uint64_t seed,
                    const std::string& dir);

RunResult RunMineWorkload(const RunArgs& args);
RunResult RunServeWorkload(const RunArgs& args);
RunResult RunWindowWorkload(const RunArgs& args);

/// Runs the arithmetic self-tests; prints failures to stderr. True when
/// all pass.
bool RunSelfTests();

// ---- Helpers shared by workloads (arith.cc) --------------------------------

/// 64-bit FNV-style digest of `bytes`, eight bytes at a time.
uint64_t Digest(const std::string& bytes);
std::string HexDigest(uint64_t digest);

/// User + system CPU seconds of this process.
double ProcessCpuSeconds();
/// Peak resident set of this process, MiB.
double ProcessPeakRssMb();
/// Seconds on the steady clock (arbitrary origin).
double SteadyNow();
double Median(const std::vector<double>& samples);
/// Adds the latency figures that are reported beside the result line:
/// the sample count, the nearest-rank p99 and whether it is resolved
/// (at least 10 samples beyond it).
void AddLatencyDetails(const std::vector<double>& seconds, RunResult* result);
/// Reads a whole file; empty string when unreadable.
std::string ReadFile(const std::string& path);

}  // namespace rpmbench

#endif  // RPMBENCH_BENCH_H_
