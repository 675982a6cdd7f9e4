// serve-mixed: open-loop dashboard traffic against `rpminer serve` over
// loopback.
//
// One generator thread polls 4 pipelined connections (2 tenants x 2
// connections; the tenant config caps each tenant at one running query,
// so admission queues). Requests are due at a fixed rate; ~85 % repeat
// one of 12 fixed shapes (Zipf-weighted), ~15 % are stricter ad-hoc
// variants of them, and every 10 s one dataset is swapped to its other
// variant. Latency runs from each request's due time.
//
// Correctness: every reply echoes its id and is OK; replies for the same
// (dataset, epoch, shape) -- and for the same dataset content -- are
// byte-identical; after the timed phase every distinct shape's payload is
// compared with an in-process QuerySession run rendered by QueryPayload.
//
// Traced run: the same socket phase (for transport time and the server's
// `stats`), then the same request lines replayed in process through two
// identical QueryService twins, one traced and one not.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "rpm/engine/session.h"
#include "rpm/serve/protocol.h"
#include "rpm/serve/service.h"
#include "rpm/serve/tenant_registry.h"
#include "rpm/serve/wire.h"

namespace rpmbench {

namespace {

/// Offered load, requests per second. Calibrated once on 4 cores (30 to
/// 80 req/s all held throughput at the offered rate without rejections;
/// the miss median rose from ~70 ms to ~100 ms above 50 req/s) and frozen.
constexpr double kRate = 40.0;
constexpr int kConnections = 4;
constexpr double kAdhocShare = 0.15;
/// Seed of the one shuffle that orders every run's queries.
constexpr uint64_t kOrderSeed = 20150323;
constexpr double kFirstSwap = 5.0;  // Seconds; then one every kSwapEvery.
constexpr double kSwapEvery = 10.0;
/// A run whose generator sent its p99 request later than this after its
/// due time fell behind its schedule and is invalid: more than 1 % of the
/// requests went out after the next one was already due. Latency runs
/// from the due time, so a shorter delay is charged to the request and
/// leaves the offered load intact.
constexpr double kMaxLatenessP99 = 1.0 / kRate;
/// Threads (the main one included) that compute the expected payloads
/// after the timed phase; the load process stays within 4 threads.
constexpr int kVerifyThreads = 4;
/// The generator stops sleeping this long before each due time.
constexpr double kSpinLead = 0.002;
/// Replies still missing this long after the last due time are failures.
constexpr double kReplyGrace = 60.0;

const char* const kDatasets[] = {"shop", "t10"};

struct Shape {
  std::string dataset;
  int64_t per = 0;
  uint64_t min_ps = 0;
  uint64_t min_rec = 1;
  std::string Key() const {
    return dataset + "/" + std::to_string(per) + "/" +
           std::to_string(min_ps) + "/" + std::to_string(min_rec);
  }
};

enum class Kind { kRepeat, kAdhoc, kSwap };

struct Planned {
  double due = 0.0;
  int conn = 0;
  Kind kind = Kind::kRepeat;
  std::string id;
  std::string line;
  Shape shape;      // Query ops.
  int variant = 0;  // Swap ops: the variant swapped in.
};

std::string QueryLine(const std::string& id, int conn, const Shape& s) {
  return "{\"op\":\"query\",\"id\":\"" + id + "\",\"tenant\":\"t" +
         std::to_string(conn / 2) + "\",\"dataset\":\"" + s.dataset +
         "\",\"per\":" + std::to_string(s.per) +
         ",\"min_ps\":" + std::to_string(s.min_ps) +
         ",\"min_rec\":" + std::to_string(s.min_rec) + "}";
}

/// The 12 fixed dashboard shapes, most popular first.
std::vector<Shape> BaseShapes(const std::map<std::string, uint64_t>& sizes) {
  std::vector<Shape> shapes;
  for (int64_t per : {360, 720, 1440}) {
    for (double pct : {0.5, 1.0}) {
      for (const char* ds : kDatasets) {
        Shape s;
        s.dataset = ds;
        s.per = per;
        s.min_ps = static_cast<uint64_t>(
            std::ceil(pct / 100.0 * static_cast<double>(sizes.at(ds))));
        shapes.push_back(s);
      }
    }
  }
  return shapes;
}

/// Splits `total` over `weights` by largest remainder (deterministic).
std::vector<size_t> Apportion(size_t total, const std::vector<double>& weights) {
  double sum = 0.0;
  for (double w : weights) sum += w;
  std::vector<size_t> counts(weights.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i] / sum;
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    remainders.emplace_back(-(exact - static_cast<double>(counts[i])), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (size_t k = 0; assigned < total; ++k, ++assigned) {
    ++counts[remainders[k % remainders.size()].second];
  }
  return counts;
}

/// The request schedule. Its composition is fixed by the rate and the
/// run length: Zipf-weighted repeats of the base shapes, kAdhocShare
/// stricter variants (cycling through four ways to tighten a shape), and
/// a swap every kSwapEvery seconds. The queries follow one fixed shuffle
/// (kOrderSeed); the workload seed varies the datasets instead. A
/// per-seed order changed which mines overlap and which results are
/// cached at the peak, and moved the server's peak RSS 124-177 MB
/// between seeds for the same work.
std::vector<Planned> MakeSchedule(double seconds,
                                  const std::vector<Shape>& base,
                                  const std::string& dir) {
  const size_t total = static_cast<size_t>(std::ceil(kRate * seconds));
  std::vector<double> due;
  std::vector<size_t> swap_slots;
  for (size_t i = 0; i < total; ++i) {
    due.push_back(static_cast<double>(i) / kRate);
    if (due[i] >= kFirstSwap + kSwapEvery * static_cast<double>(swap_slots.size())) {
      swap_slots.push_back(i);
    }
  }
  const size_t queries = total - swap_slots.size();
  const size_t adhoc = static_cast<size_t>(std::llround(kAdhocShare * queries));
  std::vector<double> zipf;
  for (size_t r = 0; r < base.size(); ++r) zipf.push_back(1.0 / (r + 1));
  std::vector<Shape> shapes;
  const std::vector<size_t> repeats = Apportion(queries - adhoc, zipf);
  const std::vector<size_t> variants = Apportion(adhoc, zipf);
  for (size_t r = 0; r < base.size(); ++r) {
    for (size_t k = 0; k < repeats[r]; ++k) shapes.push_back(base[r]);
  }
  const size_t first_adhoc = shapes.size();
  for (size_t r = 0; r < base.size(); ++r) {
    for (size_t k = 0; k < variants[r]; ++k) {
      Shape s = base[r];
      switch (k % 4) {
        case 0: s.min_rec = 2; break;
        case 1: s.min_ps = (s.min_ps * 5 + 3) / 4; break;
        case 2: s.min_rec = 3; break;
        default: s.min_ps = (s.min_ps * 3 + 1) / 2; break;
      }
      shapes.push_back(s);
    }
  }
  std::vector<size_t> order(shapes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(kOrderSeed);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<Planned> plan;
  std::map<std::string, int> current_variant;
  size_t next_query = 0, swaps = 0;
  for (size_t i = 0; i < total; ++i) {
    Planned p;
    p.due = due[i];
    p.conn = static_cast<int>(i % kConnections);
    p.id = "r" + std::to_string(i);
    if (swaps < swap_slots.size() && swap_slots[swaps] == i) {
      const std::string ds = kDatasets[swaps % 2];
      p.kind = Kind::kSwap;
      p.shape.dataset = ds;
      p.variant = current_variant[ds] = 1 - current_variant[ds];
      p.line = "{\"op\":\"swap\",\"id\":\"" + p.id + "\",\"tenant\":\"t" +
               std::to_string(p.conn / 2) + "\",\"dataset\":\"" + ds +
               "\",\"path\":\"" + dir + "/" + ServeFile(ds, p.variant) +
               "\"}";
      ++swaps;
    } else {
      const size_t pick = order[next_query++];
      p.kind = pick >= first_adhoc ? Kind::kAdhoc : Kind::kRepeat;
      p.shape = shapes[pick];
      p.line = QueryLine(p.id, p.conn, p.shape);
    }
    plan.push_back(std::move(p));
  }
  return plan;
}

// ---- The server process ----------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Spawns `argv` and waits for its "listening on" line. False with
  /// `error` set when it fails to start.
  bool Start(const std::vector<std::string>& argv, std::string* error) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(pipe_fds[1], 2);
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) ::dup2(null_fd, 1);
      ::close(pipe_fds[0]);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    stderr_fd_ = pipe_fds[0];
    std::string text;
    const double deadline = SteadyNow() + 60.0;
    const std::string marker = "listening on 127.0.0.1:";
    while (SteadyNow() < deadline) {
      pollfd pfd{stderr_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
      const size_t at = text.find(marker);
      if (at != std::string::npos &&
          text.find('\n', at) != std::string::npos) {
        port_ = static_cast<uint16_t>(
            std::atoi(text.c_str() + at + marker.size()));
        return true;
      }
    }
    *error = "server did not start: " + text.substr(0, 300);
    return false;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// User + system CPU seconds of the server so far.
  double CpuSeconds() const {
    const std::string stat =
        ReadFile("/proc/" + std::to_string(pid_) + "/stat");
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    // Fields after the command: state(3) ... utime(14) stime(15).
    std::vector<std::string> fields;
    std::string field;
    for (size_t i = close + 2; i < stat.size(); ++i) {
      if (stat[i] == ' ') {
        fields.push_back(field);
        field.clear();
      } else {
        field += stat[i];
      }
    }
    if (fields.size() < 13) return 0.0;
    const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
    return (std::stod(fields[11]) + std::stod(fields[12])) / ticks;
  }

  /// Peak resident set (VmHWM) of the server, MiB.
  double PeakRssMb() const {
    const std::string status =
        ReadFile("/proc/" + std::to_string(pid_) + "/status");
    const size_t at = status.find("VmHWM:");
    if (at == std::string::npos) return 0.0;
    return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const double deadline = SteadyNow() + 15.0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (SteadyNow() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(10000);
      }
      pid_ = -1;
    }
    if (stderr_fd_ >= 0) ::close(stderr_fd_);
    stderr_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  uint16_t port_ = 0;
};

// ---- Connections -----------------------------------------------------------

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

/// Buffered line reader over a non-blocking socket.
struct Conn {
  int fd = -1;
  std::string buffer;
  size_t scanned = 0;
  /// Reads what is available; false on EOF or error.
  bool Pump() {
    char chunk[1 << 16];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }
  bool NextLine(std::string* line) {
    const size_t nl = buffer.find('\n', scanned);
    if (nl == std::string::npos) {
      scanned = buffer.size();
      return false;
    }
    line->assign(buffer, 0, nl);
    buffer.erase(0, nl + 1);
    scanned = 0;
    return true;
  }
  /// Blocking request/reply (set-up and post-phase ops).
  bool Call(const std::string& request, std::string* reply,
            double timeout = 120.0) {
    if (!SendAll(fd, request + "\n")) return false;
    const double deadline = SteadyNow() + timeout;
    while (!NextLine(reply)) {
      if (SteadyNow() > deadline) return false;
      pollfd pfd{fd, POLLIN, 0};
      ::poll(&pfd, 1, 100);
      if (!Pump()) return false;
    }
    return true;
  }
  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

// ---- Reply parsing ---------------------------------------------------------

/// The string value of `"key":"..."` at or after `from` (no escapes).
std::string StringField(const std::string& text, const std::string& key,
                        size_t from = 0) {
  const std::string marker = "\"" + key + "\":\"";
  const size_t at = text.find(marker, from);
  if (at == std::string::npos) return "";
  const size_t begin = at + marker.size();
  const size_t end = text.find('"', begin);
  return end == std::string::npos ? "" : text.substr(begin, end - begin);
}

uint64_t NumberField(const std::string& text, const std::string& key,
                     size_t from = 0) {
  const std::string marker = "\"" + key + "\":";
  const size_t at = text.find(marker, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + marker.size(), nullptr, 10);
}

/// A query reply split into the deterministic payload and its meta.
struct Reply {
  std::string id;
  std::string status;
  std::string payload;  // Between the id and the meta object.
  std::string cache;    // meta.cache: hit | miss | coalesced.
  uint64_t epoch = 0;
  bool tree_reused = false;
};

Reply SplitReply(const std::string& line) {
  Reply r;
  const std::string head = "{\"id\":\"";
  if (line.rfind(head, 0) != 0) return r;
  const size_t id_end = line.find('"', head.size());
  if (id_end == std::string::npos) return r;
  r.id = line.substr(head.size(), id_end - head.size());
  const size_t payload_begin = id_end + 2;  // Past `",`.
  r.status = StringField(line, "status", payload_begin);
  size_t meta = line.rfind(",\"meta\":{");
  if (meta == std::string::npos || meta < payload_begin) {
    meta = line.size() - 1;  // No meta: payload runs to the closing brace.
  } else {
    const std::string tail = line.substr(meta);
    r.cache = StringField(tail, "cache");
    r.epoch = NumberField(tail, "epoch");
    r.tree_reused = tail.find("\"tree_reused\":true") != std::string::npos;
  }
  if (meta > payload_begin) {
    r.payload = line.substr(payload_begin, meta - payload_begin);
  }
  return r;
}

// ---- Correctness bookkeeping -------------------------------------------------

/// What the replies of one (dataset, epoch, shape) looked like.
struct KeyRecord {
  uint64_t digest = 0;
  std::string payload;  // First reply's payload, kept for verification.
  Shape shape;
  uint64_t epoch = 0;
};

class ReplyBook {
 public:
  /// Records a query reply; false when it differs from an earlier reply
  /// for the same (dataset, epoch, shape).
  bool Record(const Shape& shape, const Reply& reply) {
    const std::string key =
        shape.Key() + "@" + std::to_string(reply.epoch);
    const uint64_t digest = Digest(reply.payload);
    auto [it, inserted] = keys_.try_emplace(key);
    if (inserted) {
      it->second = {digest, reply.payload, shape, reply.epoch};
      return true;
    }
    return it->second.digest == digest;
  }
  const std::map<std::string, KeyRecord>& keys() const { return keys_; }

 private:
  std::map<std::string, KeyRecord> keys_;
};

/// Computes expected payloads in process, one session per dataset file.
class Verifier {
 public:
  explicit Verifier(std::string dir) : dir_(std::move(dir)) {}
  rpm::Result<std::string> Expected(const Shape& shape, int variant) {
    const std::string file = ServeFile(shape.dataset, variant);
    auto it = sessions_.find(file);
    if (it == sessions_.end()) {
      RPM_ASSIGN_OR_RETURN(
          std::shared_ptr<const rpm::engine::DatasetSnapshot> snapshot,
          rpm::engine::DatasetSnapshot::Load(dir_ + "/" + file, "tspmf"));
      it = sessions_
               .emplace(file, std::make_unique<rpm::engine::QuerySession>(
                                  snapshot))
               .first;
    }
    rpm::engine::Query query;
    query.params.period = shape.per;
    query.params.min_ps = shape.min_ps;
    query.params.min_rec = shape.min_rec;
    // The tenants take the default quota ceilings; clamp like the server.
    query.limits = rpm::serve::TenantQuotas{}.ClampLimits(query.limits);
    RPM_ASSIGN_OR_RETURN(rpm::engine::QueryResult result,
                         it->second->Run(query));
    return rpm::serve::QueryPayload(result, it->second->snapshot().dictionary());
  }

 private:
  std::string dir_;
  std::map<std::string, std::unique_ptr<rpm::engine::QuerySession>> sessions_;
};

// ---- The socket phase ----------------------------------------------------------

struct SocketPhase {
  std::vector<OpenLoopSample> samples;  // Completed ops.
  std::vector<size_t> sample_index;     // Schedule index of each sample.
  std::vector<std::string> sample_class;
  std::vector<double> miss_latency, hit_latency;
  std::map<std::string, uint64_t> classes;  // hit / miss / coalesced / swap
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
  double span = 0.0;  // First due to last completion.
  std::string stats_reply;
  std::map<std::string, std::map<uint64_t, int>> epoch_variant;
  size_t hit_reply_bytes = 0, hit_replies = 0;
};

std::vector<std::string> ServerArgv(const RunArgs& args,
                                    const std::string& config) {
  std::vector<std::string> argv = {args.rpminer, "serve"};
  for (const char* ds : kDatasets) {
    argv.push_back(std::string(ds) + "=" + args.input_dir + "/" +
                   ServeFile(ds, 0));
  }
  argv.insert(argv.end(), {"--port", "0", "--config", config});
  return argv;
}

/// Starts a server, connects, and warms its cache with the base shapes.
/// Returns the seconds this took, or < 0 (with `result` failed).
double SetUp(const RunArgs& args, const std::string& config,
             const std::vector<Shape>& base, ServerProcess* server,
             std::vector<Conn>* conns, RunResult* result) {
  const double start = SteadyNow();
  std::string error;
  if (!server->Start(ServerArgv(args, config), &error)) {
    result->Fail(error);
    return -1.0;
  }
  conns->assign(kConnections, Conn{});
  for (Conn& c : *conns) {
    c.fd = Connect(server->port());
    if (c.fd < 0) {
      result->Fail("cannot connect to the server");
      return -1.0;
    }
  }
  for (size_t i = 0; i < base.size(); ++i) {
    Conn& c = (*conns)[i % kConnections];
    std::string reply;
    const std::string id = "warm" + std::to_string(i);
    if (!c.Call(QueryLine(id, static_cast<int>(i % kConnections), base[i]),
                &reply) ||
        SplitReply(reply).status != "OK") {
      result->Fail("warm-up query failed: " + reply.substr(0, 200));
      return -1.0;
    }
  }
  return SteadyNow() - start;
}

void RunSocketPhase(const std::vector<Planned>& plan, ServerProcess* server,
                    std::vector<Conn>* conns, ReplyBook* book,
                    SocketPhase* phase, RunResult* result) {
  std::vector<std::vector<size_t>> outstanding(kConnections);
  std::vector<size_t> head(kConnections, 0);
  std::vector<bool> alive(kConnections, true);
  std::vector<OpenLoopSample> timing(plan.size());
  for (const char* ds : kDatasets) phase->epoch_variant[ds][1] = 0;

  const double cpu0 = server->CpuSeconds();
  const double origin = SteadyNow() + 0.010;
  size_t next = 0, completed = 0;
  const double last_due = plan.empty() ? 0.0 : plan.back().due;
  std::string line;
  // Sends every request that is due. Called before each reply is handled,
  // so handling a burst of large replies never delays a due request by
  // more than one reply's bookkeeping.
  const auto send_due = [&]() {
    double now = SteadyNow() - origin;
    while (next < plan.size() && plan[next].due <= now) {
      const Planned& p = plan[next];
      timing[next].due = p.due;
      timing[next].sent = now;
      if (alive[p.conn] && SendAll((*conns)[p.conn].fd, p.line + "\n")) {
        outstanding[p.conn].push_back(next);
      } else {
        alive[p.conn] = false;
        ++result->failed;
        ++completed;
        result->Fail("send failed on connection " + std::to_string(p.conn));
      }
      ++next;
      now = SteadyNow() - origin;
    }
    return now;
  };
  while (completed < plan.size()) {
    const double now = send_due();
    if (now > last_due + kReplyGrace) {
      for (int c = 0; c < kConnections; ++c) {
        const size_t missing = outstanding[c].size() - head[c];
        result->failed += missing;
        completed += missing;
        head[c] = outstanding[c].size();
      }
      result->Fail("replies missing after the grace period");
      break;
    }
    // Sleep until kSpinLead before the next due time, then poll without
    // sleeping: a thread woken from a timed sleep on a busy host can start
    // several milliseconds late.
    const double wait =
        next < plan.size() ? plan[next].due - now - kSpinLead : 0.05;
    pollfd pfds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      pfds[c] = {alive[c] ? (*conns)[c].fd : -1, POLLIN, 0};
    }
    const timespec timeout{0, static_cast<long>(std::max(0.0, wait) * 1e9)};
    if (::ppoll(pfds, kConnections, &timeout, nullptr) <= 0) continue;
    for (int c = 0; c < kConnections; ++c) {
      if (pfds[c].revents == 0) continue;
      Conn& conn = (*conns)[c];
      const bool open = conn.Pump();
      while (head[c] < outstanding[c].size() && conn.NextLine(&line)) {
        const size_t i = outstanding[c][head[c]++];
        timing[i].done = SteadyNow() - origin;
        send_due();
        ++completed;
        const Planned& p = plan[i];
        const Reply reply = SplitReply(line);
        if (reply.id != p.id || reply.status != "OK") {
          ++result->failed;
          result->Fail("request " + p.id + ": " + line.substr(0, 200));
          continue;
        }
        phase->samples.push_back(timing[i]);
        phase->sample_index.push_back(i);
        phase->sample_class.push_back(p.kind == Kind::kSwap ? "swap"
                                                            : reply.cache);
        if (p.kind == Kind::kSwap) {
          ++phase->classes["swap"];
          phase->epoch_variant[p.shape.dataset][NumberField(line, "epoch")] =
              p.variant;
          continue;
        }
        ++phase->classes[reply.cache];
        if (reply.cache == "miss") {
          phase->miss_latency.push_back(timing[i].latency());
        } else if (reply.cache == "hit") {
          phase->hit_latency.push_back(timing[i].latency());
          phase->hit_reply_bytes += line.size();
          ++phase->hit_replies;
        }
        if (!book->Record(p.shape, reply)) {
          ++result->failed;
          result->Fail("reply " + p.id +
                       " differs from an earlier reply for the same "
                       "(dataset, epoch, shape)");
        }
      }
      if (!open && head[c] < outstanding[c].size()) {
        const size_t missing = outstanding[c].size() - head[c];
        result->failed += missing;
        completed += missing;
        head[c] = outstanding[c].size();
        alive[c] = false;
        result->Fail("connection " + std::to_string(c) + " dropped");
      }
    }
  }
  phase->cpu_seconds = server->CpuSeconds() - cpu0;
  phase->peak_rss_mb = server->PeakRssMb();
  for (const OpenLoopSample& s : phase->samples) {
    phase->span = std::max(phase->span, s.done);
  }
  result->attempted += plan.size();
  std::string stats;
  if ((*conns)[0].fd >= 0 && (*conns)[0].Call("{\"op\":\"stats\"}", &stats)) {
    phase->stats_reply = stats;
  }
}

/// Checks every recorded (dataset, epoch, shape) against the in-process
/// expectation, and that equal dataset contents gave equal bytes. The
/// expected payloads are computed on kVerifyThreads threads, each with its
/// own sessions.
void VerifyReplies(const RunArgs& args, const ReplyBook& book,
                   const SocketPhase& phase, RunResult* result,
                   uint64_t* verified) {
  struct Check {
    std::string key;
    const KeyRecord* record = nullptr;
    int variant = 0;
    bool ok = false;
  };
  std::vector<Check> checks;
  std::map<std::string, uint64_t> by_content;
  for (const auto& [key, record] : book.keys()) {
    const auto& epochs = phase.epoch_variant.at(record.shape.dataset);
    const auto variant = epochs.find(record.epoch);
    if (variant == epochs.end()) {
      ++result->failed;
      result->Fail("reply for unknown epoch " + key);
      continue;
    }
    const std::string content =
        record.shape.Key() + "#" + std::to_string(variant->second);
    auto [it, fresh] = by_content.try_emplace(content, record.digest);
    if (!fresh) {
      if (it->second != record.digest) {
        ++result->failed;
        result->Fail("same dataset content, different bytes: " + key);
      }
      continue;
    }
    checks.push_back({key, &record, variant->second, false});
  }
  std::atomic<size_t> next{0};
  const auto work = [&]() {
    Verifier verifier(args.input_dir);
    for (size_t i = next++; i < checks.size(); i = next++) {
      Check& c = checks[i];
      rpm::Result<std::string> expected =
          verifier.Expected(c.record->shape, c.variant);
      c.ok = expected.ok() && *expected == c.record->payload;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < kVerifyThreads; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  for (const Check& c : checks) {
    if (!c.ok) {
      ++result->failed;
      result->Fail("payload differs from the in-process QuerySession run: " +
                   c.key);
    }
    ++*verified;
  }
}

void AddMix(const std::vector<Planned>& plan, RunResult* result) {
  uint64_t repeats = 0, adhoc = 0, swaps = 0;
  uint64_t shape_digest = 1469598103934665603ull;
  for (const Planned& p : plan) {
    if (p.kind == Kind::kRepeat) ++repeats;
    if (p.kind == Kind::kAdhoc) ++adhoc;
    if (p.kind == Kind::kSwap) ++swaps;
    shape_digest = (shape_digest ^ Digest(p.line)) * 1099511628211ull;
  }
  result->invariants.Add("schedule_ops", static_cast<uint64_t>(plan.size()));
  result->invariants.Add("schedule_repeats", repeats);
  result->invariants.Add("schedule_adhoc", adhoc);
  result->invariants.Add("schedule_swaps", swaps);
  result->invariants.Add("schedule_digest", HexDigest(shape_digest));
}

void AddRealisedShares(const std::vector<Planned>& plan,
                       const SocketPhase& phase, RunResult* result) {
  const double n = static_cast<double>(plan.size());
  uint64_t adhoc = 0;
  for (const Planned& p : plan) adhoc += p.kind == Kind::kAdhoc;
  auto count = [&](const char* c) {
    auto it = phase.classes.find(c);
    return it == phase.classes.end() ? 0.0 : static_cast<double>(it->second);
  };
  JsonObject mix;
  mix.Add("hit", Ratio{count("hit"), n}.value());
  mix.Add("miss", Ratio{count("miss"), n}.value());
  mix.Add("coalesced", Ratio{count("coalesced"), n}.value());
  mix.Add("adhoc", Ratio{static_cast<double>(adhoc), n}.value());
  mix.Add("swap", Ratio{count("swap"), n}.value());
  mix.Add("base_ops", static_cast<uint64_t>(plan.size()));
  result->details.Add("realised_mix", mix);
}

/// The 12 slowest ops (due time, kind, reply class, latency), so the
/// report shows what the tail is made of.
std::string SlowestOps(const std::vector<Planned>& plan,
                       const SocketPhase& phase) {
  std::vector<size_t> order(phase.samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return phase.samples[a].latency() > phase.samples[b].latency();
  });
  std::string out = "[";
  for (size_t k = 0; k < order.size() && k < 12; ++k) {
    const size_t s = order[k];
    const Planned& p = plan[phase.sample_index[s]];
    JsonObject op;
    op.Add("due_s", p.due);
    op.Add("kind", p.kind == Kind::kSwap    ? "swap"
                   : p.kind == Kind::kAdhoc ? "adhoc"
                                            : "repeat");
    op.Add("class", phase.sample_class[s]);
    op.Add("dataset", p.shape.dataset);
    op.Add("latency_ms", phase.samples[s].latency() * 1e3);
    out += (k ? ", " : "") + op.str();
  }
  return out + "]";
}

std::string WriteTenantConfig(const std::string& dir) {
  const std::string path = dir + "/tenants.conf";
  std::ofstream out(path);
  out << "{\"tenant\": \"t0\", \"max_concurrent\": 1}\n"
      << "{\"tenant\": \"t1\", \"max_concurrent\": 1}\n";
  return path;
}

std::map<std::string, uint64_t> DatasetSizes(const std::string& dir) {
  std::map<std::string, uint64_t> sizes;
  rpm::Result<rpm::serve::JsonValue> shape =
      rpm::serve::ParseJson(ReadFile(dir + "/shape.json"));
  for (const char* ds : kDatasets) {
    const rpm::serve::JsonValue* entry = shape.ok() ? shape->Find(ds) : nullptr;
    const rpm::serve::JsonValue* count =
        entry != nullptr ? entry->Find("transactions") : nullptr;
    rpm::Result<uint64_t> n =
        count != nullptr ? count->GetUint64("transactions")
                         : rpm::Result<uint64_t>(rpm::Status::NotFound(ds));
    sizes[ds] = n.ok() ? *n : 0;
  }
  return sizes;
}

/// In-process replay of the schedule through two identical services, one
/// traced; fills the service / protocol / planner per-layer metrics.
void ReplayInProcess(const RunArgs& args, const std::string& config,
                     const std::vector<Planned>& plan,
                     const SocketPhase& phase, const ReplyBook& book,
                     RunResult* result) {
  struct Twin {
    rpm::engine::SnapshotRegistry registry;
    std::unique_ptr<rpm::serve::QueryService> service;
    uint64_t retired_builds = 0;  // Tree builds of swapped-out epochs.
  };
  Twin twins[2];
  for (Twin& t : twins) {
    for (const char* ds : kDatasets) {
      auto snapshot = rpm::engine::DatasetSnapshot::Load(
          args.input_dir + "/" + ServeFile(ds, 0), "tspmf");
      if (!snapshot.ok() || !t.registry.Register(ds, *snapshot).ok()) {
        result->Fail("replay: cannot load dataset");
        return;
      }
    }
    rpm::serve::TenantRegistry tenants;
    std::ifstream in(config);
    if (!tenants.LoadConfig(in).ok()) {
      result->Fail("replay: bad tenant config");
      return;
    }
    t.service = std::make_unique<rpm::serve::QueryService>(
        &t.registry, std::move(tenants), rpm::serve::QueryService::Options{});
  }
  Tracer tracer(true), untraced(false);
  std::map<std::string, std::vector<double>> handle_ms;
  std::vector<double> parse_us, coverage, traced_wall, untraced_wall;
  uint64_t computed = 0, reused = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    std::string replies[2];
    for (int k = 0; k < 2; ++k) {
      const int t = (k + static_cast<int>(i)) % 2;  // Alternate the order.
      Tracer* tr = t == 0 ? &tracer : &untraced;
      Twin& twin = twins[t];
      if (p.kind == Kind::kSwap) {
        auto current = twin.registry.Get(p.shape.dataset);
        if (current.ok()) twin.retired_builds += current->planner->tree_builds();
      }
      const double start = SteadyNow();
      const int root = tr->Begin("op", -1, static_cast<int>(i));
      const int ps = tr->Begin("serve.protocol", root, static_cast<int>(i));
      const bool parsed = rpm::serve::ParseRequest(p.line).ok();
      tr->End(ps);
      const int hs = tr->Begin("serve.service", root, static_cast<int>(i));
      replies[t] = twin.service->HandleLine(p.line);
      tr->End(hs);
      tr->End(root);
      const double wall = SteadyNow() - start;
      if (!parsed) result->Fail("replay: request line does not parse");
      if (t == 1) {
        untraced_wall.push_back(wall);
        continue;
      }
      traced_wall.push_back(wall);
      const Span& r = tracer.spans()[static_cast<size_t>(root)];
      const Span& pspan = tracer.spans()[static_cast<size_t>(ps)];
      const Span& hspan = tracer.spans()[static_cast<size_t>(hs)];
      coverage.push_back((pspan.duration() + hspan.duration()) / r.duration());
      parse_us.push_back(pspan.duration() * 1e6);
      const Reply reply = SplitReply(replies[t]);
      const std::string cls = p.kind == Kind::kSwap ? "swap" : reply.cache;
      handle_ms[cls].push_back(hspan.duration() * 1e3);
      if (reply.cache == "miss") {
        ++computed;
        reused += reply.tree_reused;
      }
    }
    ++result->attempted;
    const Reply a = SplitReply(replies[0]);
    if (a.id != p.id || a.status != "OK" || replies[0] != replies[1]) {
      ++result->failed;
      result->Fail("replay of " + p.id + " failed or twins differ: " +
                   replies[0].substr(0, 200));
      continue;
    }
    if (p.kind != Kind::kSwap) {
      // The in-process bytes must match what the server sent for the
      // same (dataset, epoch, shape).
      auto it = book.keys().find(p.shape.Key() + "@" + std::to_string(a.epoch));
      if (it != book.keys().end() && it->second.digest != Digest(a.payload)) {
        ++result->failed;
        result->Fail("replay payload differs from the server's: " + p.id);
      }
    }
  }
  uint64_t builds = twins[0].retired_builds;
  for (const char* ds : kDatasets) {
    auto current = twins[0].registry.Get(ds);
    if (current.ok()) builds += current->planner->tree_builds();
  }
  const double hit_e2e = Median(phase.hit_latency) * 1e3;
  result->Set("serve.protocol.parse_us", Median(parse_us), "us");
  result->Set("serve.service.hit_ms", Median(handle_ms["hit"]), "ms");
  result->Set("serve.service.miss_ms", Median(handle_ms["miss"]), "ms");
  result->Set("serve.service.swap_ms", Median(handle_ms["swap"]), "ms");
  result->Set("serve.server.transport_ms", hit_e2e - Median(handle_ms["hit"]),
              "ms");
  result->Set("engine.planner.tree_reused_share",
              Ratio{static_cast<double>(reused), static_cast<double>(computed)}
                  .value(),
              "ratio");
  result->Set("engine.planner.tree_builds", static_cast<double>(builds),
              "count");
  result->Set("trace.coverage", Median(coverage), "ratio");
  const double untraced_p50 = Median(untraced_wall);
  result->Set("trace.overhead_ratio",
              Ratio{Median(traced_wall) - untraced_p50, untraced_p50}.value(),
              "ratio");
  result->details.Add("replay_ops", static_cast<uint64_t>(plan.size()));
  result->details.Add("replay_misses", computed);
  result->invariants.Add("replay_tree_builds", builds);
  result->invariants.Add("replay_misses", computed);
  result->invariants.Add("replay_tree_reused", reused);
}

}  // namespace

RunResult RunServeWorkload(const RunArgs& args) {
  RunResult result;
  const std::map<std::string, uint64_t> sizes = DatasetSizes(args.input_dir);
  for (const auto& [ds, n] : sizes) {
    if (n == 0) {
      result.Fail("missing input shape for dataset " + ds);
      return result;
    }
  }
  const std::vector<Shape> base = BaseShapes(sizes);
  const std::vector<Planned> plan =
      MakeSchedule(args.seconds, base, args.input_dir);
  const std::string config = WriteTenantConfig(args.input_dir);
  AddMix(plan, &result);

  // Set-up: start, load, warm; the first servers are only timed.
  std::vector<double> setup;
  ServerProcess server;
  std::vector<Conn> conns;
  const int setups = args.trace ? 1 : 5;
  for (int i = 0; i < setups; ++i) {
    for (Conn& c : conns) c.Close();
    server.Stop();
    const double s = SetUp(args, config, base, &server, &conns, &result);
    if (s < 0) return result;
    setup.push_back(s);
  }

  ReplyBook book;
  SocketPhase phase;
  RunSocketPhase(plan, &server, &conns, &book, &phase, &result);
  for (Conn& c : conns) c.Close();
  server.Stop();

  uint64_t verified = 0;
  VerifyReplies(args, book, phase, &result, &verified);
  result.details.Add("verified_shapes", verified);

  std::vector<double> latency, lateness;
  for (const OpenLoopSample& s : phase.samples) {
    latency.push_back(s.latency());
    lateness.push_back(s.lateness());
  }
  const double late_p99 = Percentile(lateness, 0.99);
  if (late_p99 > kMaxLatenessP99) {
    result.Fail("generator fell behind its schedule (p99 lateness " +
                FormatDouble(late_p99 * 1e3) + " ms)");
  }
  JsonObject late;
  late.Add("p50_ms", Median(lateness) * 1e3);
  late.Add("p99_ms", late_p99 * 1e3);
  late.Add("max_ms", Percentile(lateness, 1.0) * 1e3);
  result.details.Add("generator_lateness", late);
  result.details.Add("rate_per_s", kRate);
  AddLatencyDetails(latency, &result);
  result.details.Add("miss_latency_p50_ms", Median(phase.miss_latency) * 1e3);
  result.details.Add("miss_samples",
                     static_cast<uint64_t>(phase.miss_latency.size()));
  AddRealisedShares(plan, phase, &result);
  result.details.AddRaw("slowest", SlowestOps(plan, phase));

  if (!args.trace) {
    const double n = static_cast<double>(latency.size());
    result.Set("setup_s", Median(setup), "s");
    result.Set("latency_p50_ms", Median(latency) * 1e3, "ms");
    result.Set("throughput_ops_s", Ratio{n, phase.span}.value(), "1/s");
    result.Set("cpu_ms_per_op",
               Ratio{phase.cpu_seconds * 1e3,
                     static_cast<double>(result.attempted)}
                   .value(),
               "ms");
    result.Set("peak_rss_mb", phase.peak_rss_mb, "MB");
    return result;
  }

  // Traced: server-side counters from `stats`, then the in-process replay.
  const std::string& st = phase.stats_reply;
  const double admitted = static_cast<double>(NumberField(st, "admitted"));
  const double hits = static_cast<double>(NumberField(st, "hits"));
  const double misses = static_cast<double>(NumberField(st, "misses"));
  const double coalesced = static_cast<double>(NumberField(st, "coalesced"));
  result.Set("serve.admission.queued_share",
             Ratio{static_cast<double>(NumberField(st, "queued_total")),
                   admitted}
                 .value(),
             "ratio");
  result.Set("serve.admission.rejected",
             static_cast<double>(NumberField(st, "rejected_tenant") +
                                 NumberField(st, "rejected_global")),
             "count");
  result.Set("serve.result_cache.hit_ratio",
             Ratio{hits, hits + misses + coalesced}.value(), "ratio");
  result.Set("serve.result_cache.coalesced", coalesced, "count");
  result.Set("serve.result_cache.evictions",
             static_cast<double>(NumberField(st, "evictions")), "count");
  result.Set("analysis.export.bytes",
             Ratio{static_cast<double>(phase.hit_reply_bytes),
                   static_cast<double>(phase.hit_replies)}
                 .value(),
             "B");
  ReplayInProcess(args, config, plan, phase, book, &result);
  return result;
}

}  // namespace rpmbench
