#include "rpm/verify/fault_injection.h"

#include <sstream>
#include <utility>

#include "rpm/common/failpoint.h"
#include "rpm/engine/session.h"
#include "rpm/engine/snapshot_registry.h"
#include "rpm/serve/client.h"
#include "rpm/serve/server.h"
#include "rpm/serve/service.h"
#include "rpm/timeseries/io/spmf_io.h"
#include "rpm/verify/case_generator.h"

namespace rpm {

namespace {

/// SplitMix64 finalizer: the fire decision for hit n of a site is
/// Mix(seed ^ site-hash ^ n) — a pure function of those three, so a trial
/// replays from its seed (modulo worker interleaving on the parallel
/// backend, which only permutes per-site hit indexes).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashSite(const std::string& site) {
  // FNV-1a; sites are short literals, quality is plenty for seeding Mix.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : site) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

bool InjectorTrampoline(const char* site) {
  return FaultInjector::Instance().ShouldFail(site);
}

}  // namespace

FaultInjector& FaultInjector::Instance() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::Arm(const FaultInjectionOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    options_ = options;
    sites_.clear();
    hits_ = 0;
    fires_ = 0;
  }
  SetFailpointHandler(&InjectorTrampoline);
}

void FaultInjector::Disarm() {
  SetFailpointHandler(nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
}

bool FaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

bool FaultInjector::ShouldFail(const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  // A worker may hit a site between SetFailpointHandler(nullptr) and the
  // armed_ flip; treat that window as disarmed.
  if (!armed_) return false;
  const std::string key(site);
  auto& counts = sites_[key];
  const uint64_t hit_index = counts.first++;
  ++hits_;
  if (!options_.site_filter.empty() && options_.site_filter != key) {
    return false;
  }
  bool fire;
  if (options_.fire_on_nth > 0) {
    fire = hit_index + 1 == options_.fire_on_nth;
  } else {
    const uint64_t roll = Mix(options_.seed ^ HashSite(key) ^ hit_index);
    fire = roll % 1000000ull < options_.probability_ppm;
  }
  if (fire) {
    ++counts.second;
    ++fires_;
  }
  return fire;
}

uint64_t FaultInjector::fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fires_;
}

uint64_t FaultInjector::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::map<std::string, std::pair<uint64_t, uint64_t>>
FaultInjector::SiteCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_;
}

// --- Campaign driver -------------------------------------------------------

namespace {

using engine::BackendKind;
using engine::DatasetSnapshot;
using engine::ExecOptions;
using engine::Query;
using engine::QueryResult;
using engine::QuerySession;

struct TrialContext {
  FaultCampaignReport* report;
  size_t trial;
  std::string regime;
};

void AddFailure(const TrialContext& ctx, const std::string& what) {
  std::string msg;
  msg += "trial ";
  msg += std::to_string(ctx.trial);
  msg += " [";
  msg += ctx.regime;
  msg += "]: ";
  msg += what;
  ctx.report->failures.push_back(std::move(msg));
}

/// A governed query for the campaign: the trial's params plus a generous
/// deadline. The deadline is never hit by these tiny cases on a real
/// clock — its only purpose is to make the clock.skip failpoint eligible
/// (deadline probes are skipped entirely on un-timed queries).
Query CampaignQuery(const RpParams& params) {
  Query query;
  query.params = params;
  query.limits.timeout_ms = 60 * 1000;
  return query;
}

/// Runs one armed query and checks the fault contract: a well-formed query
/// NEVER surfaces a Result error or an exception; it either completes with
/// exactly the ground-truth patterns (status OK) or reports a governed
/// failure through QueryResult::status. Returns true when the operation
/// recovered from a fault (non-OK status).
bool CheckArmedQuery(const TrialContext& ctx, QuerySession& session,
                     const Query& query, BackendKind backend,
                     const ExecOptions& exec,
                     const std::vector<RecurringPattern>& truth) {
  Result<QueryResult> run = session.Run(query, backend, exec);
  const char* name = engine::BackendName(backend);
  if (!run.ok()) {
    AddFailure(ctx, std::string(name) + " returned a Result error under " +
                        "faults: " + run.status().ToString());
    return false;
  }
  const QueryResult& result = *run;
  if (result.status.ok()) {
    if (result.truncated) {
      AddFailure(ctx, std::string(name) +
                          " reported truncated=true with an OK status");
    } else if (result.patterns != truth) {
      AddFailure(ctx, std::string(name) +
                          " diverged from ground truth without reporting "
                          "a fault (status OK)");
    }
    return false;
  }
  // Governed failure: the status must be one of the fault-shaped codes,
  // and a truncated result must still be well-formed (no partial garbage
  // — every reported pattern is a real ground-truth pattern).
  if (!result.status.IsResourceExhausted() &&
      !result.status.IsDeadlineExceeded() && !result.status.IsCancelled() &&
      result.status.code() != StatusCode::kUnknown) {
    AddFailure(ctx, std::string(name) + " surfaced an unexpected status "
                                        "under faults: " +
                        result.status.ToString());
    return false;
  }
  for (const RecurringPattern& p : result.patterns) {
    bool found = false;
    for (const RecurringPattern& t : truth) {
      if (p == t) {
        found = true;
        break;
      }
    }
    if (!found) {
      AddFailure(ctx, std::string(name) +
                          " emitted a pattern absent from ground truth in "
                          "a truncated result: " +
                          p.ToString());
      return false;
    }
  }
  return true;
}

/// Disarmed rerun on the SAME session: faults must leave no residue — in
/// particular no partial build in the planner cache (DESIGN.md §7.4).
void CheckDisarmedRerun(const TrialContext& ctx, QuerySession& session,
                        const Query& query, BackendKind backend,
                        const ExecOptions& exec,
                        const std::vector<RecurringPattern>& truth) {
  Result<QueryResult> run = session.Run(query, backend, exec);
  const char* name = engine::BackendName(backend);
  if (!run.ok()) {
    AddFailure(ctx, std::string(name) + " failed on the disarmed rerun: " +
                        run.status().ToString());
    return;
  }
  if (!run->status.ok() || run->patterns != truth) {
    AddFailure(ctx, std::string(name) +
                        " diverged on the disarmed rerun — fault residue "
                        "(poisoned planner cache?)");
  }
}

/// Armed tspmf round-trip through string streams: the write side has no
/// failpoints; the read side may fail via io.read and must do so with a
/// clean non-OK status. Returns true on a recovered fault.
bool CheckArmedRoundTrip(const TrialContext& ctx,
                         const TransactionDatabase& db) {
  std::ostringstream encoded;
  const Status write = WriteTimestampedSpmf(db, &encoded);
  if (!write.ok()) {
    AddFailure(ctx, "tspmf write failed (no failpoints on the write "
                    "path): " +
                        write.ToString());
    return false;
  }
  std::istringstream in(encoded.str());
  Result<TransactionDatabase> read = ReadTimestampedSpmf(&in);
  if (!read.ok()) return true;  // Clean refusal — the contract.
  if (read->size() != db.size()) {
    AddFailure(ctx, "tspmf round-trip silently dropped transactions under "
                    "faults");
  }
  return false;
}

/// The trial's query as a wire request line. "meta": false strips the
/// history-dependent meta object, so the response is byte-deterministic
/// and the armed/disarmed runs can be compared bit-for-bit.
std::string ServeQueryLine(const RpParams& params) {
  std::string line = "{\"op\":\"query\",\"dataset\":\"trial\","
                     "\"tenant\":\"campaign\",\"id\":\"q\",\"per\":";
  line += std::to_string(params.period);
  line += ",\"min_ps\":";
  line += std::to_string(params.min_ps);
  line += ",\"min_rec\":";
  line += std::to_string(params.min_rec);
  line += ",\"tolerance\":";
  line += std::to_string(params.max_gap_violations);
  line += ",\"meta\":false}";
  return line;
}

/// True when an armed response line is an acceptable structured failure:
/// it must look like a response object carrying a "status" field (the
/// server never writes partial junk — a fault either closes the
/// connection or the full structured line goes out).
bool IsStructuredResponse(const std::string& line) {
  return !line.empty() && line.front() == '{' && line.back() == '}' &&
         line.find("\"status\":\"") != std::string::npos;
}

/// One serve-side fault trial: an in-process server hosting the trial's
/// snapshot, a disarmed ground-truth response, several armed request
/// attempts over fresh connections (each may be cut by serve.accept /
/// serve.read / serve.write / serve.session.alloc or fail in-engine), and
/// a disarmed rerun that must be BIT-IDENTICAL to ground truth. The
/// server must stay alive throughout and drain cleanly at the end —
/// a hang here fails the trial via read timeouts.
void CheckServeTrial(const TrialContext& ctx,
                     const std::shared_ptr<const DatasetSnapshot>& snapshot,
                     const RpParams& params,
                     const FaultCampaignOptions& options, size_t trial,
                     FaultCampaignReport* report) {
  engine::SnapshotRegistry registry;
  if (Status s = registry.Register("trial", snapshot); !s.ok()) {
    AddFailure(ctx, "serve: snapshot registration failed: " + s.ToString());
    return;
  }
  serve::QueryService service(&registry, serve::TenantRegistry(), {});
  serve::Server::Options server_options;
  server_options.drain_deadline_ms = 2000;
  serve::Server server(&service, server_options);
  if (Status s = server.Start(); !s.ok()) {
    AddFailure(ctx, "serve: server start failed: " + s.ToString());
    return;
  }

  const std::string request = ServeQueryLine(params);
  std::string ground_truth;
  {
    Result<serve::LineClient> client = serve::LineClient::Connect(server.port());
    if (!client.ok()) {
      AddFailure(ctx, "serve: disarmed connect failed: " +
                          client.status().ToString());
      return;
    }
    Result<std::string> response = client->Call(request, /*timeout_ms=*/10000);
    if (!response.ok()) {
      AddFailure(ctx, "serve: disarmed ground-truth query failed: " +
                          response.status().ToString());
      return;
    }
    ground_truth = *response;
  }

  {
    FaultInjectionOptions inject;
    // Distinct stream from the engine-side armed scope of the same trial.
    inject.seed = Mix(options.seed ^ (trial * 0x9e3779b97f4a7c15ull) ^ 1);
    inject.probability_ppm = options.probability_ppm;
    ScopedFaultInjection armed(inject);

    for (int attempt = 0; attempt < 3; ++attempt) {
      ++report->faulted_operations;
      Result<serve::LineClient> client =
          serve::LineClient::Connect(server.port());
      if (!client.ok()) {
        // accept-side fault: connection refused/reset before use.
        ++report->clean_recoveries;
        continue;
      }
      if (!client->SendLine(request).ok()) {
        ++report->clean_recoveries;  // Connection cut by a serve fault.
        continue;
      }
      Result<std::string> response = client->ReadLine(/*timeout_ms=*/10000);
      if (!response.ok()) {
        if (response.status().IsDeadlineExceeded()) {
          AddFailure(ctx, "serve: armed request hung (no response, no "
                          "close, within 10s)");
          return;
        }
        ++report->clean_recoveries;  // EOF: fault closed the connection.
        continue;
      }
      if (*response == ground_truth) continue;  // Clean completion.
      if (IsStructuredResponse(*response)) {
        ++report->clean_recoveries;  // Structured in-band failure.
        continue;
      }
      AddFailure(ctx, "serve: armed response is neither ground truth nor "
                      "a structured failure: " +
                          *response);
      return;
    }
    report->faults_injected += FaultInjector::Instance().fires();
  }

  // Disarmed rerun: bit-identical bytes, and the server still serves.
  Result<serve::LineClient> client = serve::LineClient::Connect(server.port());
  if (!client.ok()) {
    AddFailure(ctx, "serve: disarmed-rerun connect failed — server died "
                    "under transport faults: " +
                        client.status().ToString());
    return;
  }
  Result<std::string> rerun = client->Call(request, /*timeout_ms=*/10000);
  if (!rerun.ok()) {
    AddFailure(ctx, "serve: disarmed rerun failed: " +
                        rerun.status().ToString());
    return;
  }
  if (*rerun != ground_truth) {
    AddFailure(ctx, "serve: disarmed rerun diverged from ground truth — "
                    "fault residue in the server");
    return;
  }
  server.Drain();
}

}  // namespace

std::string FaultCampaignReport::ToString() const {
  std::string s;
  s += "fault campaign: ";
  s += std::to_string(trials_run);
  s += " trials, ";
  s += std::to_string(faults_injected);
  s += " faults injected across ";
  s += std::to_string(faulted_operations);
  s += " operations, ";
  s += std::to_string(clean_recoveries);
  s += " clean recoveries, ";
  s += std::to_string(failures.size());
  s += " contract violations";
  if (cancelled) s += " (cancelled early)";
  s += ok() ? " [PASS]" : " [FAIL]";
  for (const std::string& f : failures) {
    s += "\n  FAIL: ";
    s += f;
  }
  return s;
}

FaultCampaignReport RunFaultCampaign(const FaultCampaignOptions& options) {
  FaultCampaignReport report;
  FaultInjector& injector = FaultInjector::Instance();
  const ExecOptions parallel_exec{options.parallel_threads};

  for (size_t trial = 0; trial < options.trials; ++trial) {
    if (report.failures.size() >= options.max_failures) break;
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      report.cancelled = true;
      break;
    }
    verify::VerifyCase vcase = verify::MakeVerifyCase(options.seed, trial);
    TrialContext ctx{&report, trial, vcase.regime};
    ++report.trials_run;

    // Ground truth, disarmed and un-governed.
    auto snapshot = DatasetSnapshot::Create(std::move(vcase.db));
    QuerySession session(snapshot);
    Query plain;
    plain.params = vcase.params;
    Result<QueryResult> truth_run = session.Run(plain);
    if (!truth_run.ok()) {
      AddFailure(ctx, "ground-truth query failed while disarmed: " +
                          truth_run.status().ToString());
      continue;
    }
    const std::vector<RecurringPattern> truth =
        std::move(truth_run.ValueOrDie().patterns);

    const Query governed = CampaignQuery(vcase.params);
    size_t recoveries = 0;
    {
      FaultInjectionOptions inject;
      inject.seed = Mix(options.seed ^ (trial * 2654435761ull));
      inject.probability_ppm = options.probability_ppm;
      ScopedFaultInjection armed(inject);

      recoveries += CheckArmedRoundTrip(ctx, snapshot->db()) ? 1 : 0;
      ++report.faulted_operations;
      recoveries += CheckArmedQuery(ctx, session, governed,
                                    BackendKind::kSequential, {}, truth)
                        ? 1
                        : 0;
      ++report.faulted_operations;
      recoveries += CheckArmedQuery(ctx, session, governed,
                                    BackendKind::kParallel, parallel_exec,
                                    truth)
                        ? 1
                        : 0;
      ++report.faulted_operations;
      // Counters were reset by this scope's Arm, so this is the trial's
      // own fire count.
      report.faults_injected += injector.fires();
    }
    report.clean_recoveries += recoveries;

    // Residue check on the same session, injector disarmed.
    CheckDisarmedRerun(ctx, session, plain, BackendKind::kSequential, {},
                       truth);
    CheckDisarmedRerun(ctx, session, plain, BackendKind::kParallel,
                       parallel_exec, truth);

    // Transport robustness: the same query through an in-process server
    // with the serve.* failpoints armed.
    if (options.serve_trials) {
      CheckServeTrial(ctx, snapshot, vcase.params, options, trial, &report);
    }
  }
  return report;
}

}  // namespace rpm
