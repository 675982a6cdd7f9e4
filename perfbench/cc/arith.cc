#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace rpmbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

bool PercentileResolved(size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

double SelfTime(double start, double end,
                std::vector<std::pair<double, double>> children) {
  for (auto& [b, e] : children) {
    b = std::clamp(b, start, end);
    e = std::clamp(e, start, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = start;
  for (const auto& [b, e] : children) {
    const double from = std::max(b, cursor);
    if (e > from) {
      covered += e - from;
      cursor = e;
    }
  }
  return (end - start) - covered;
}

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(SteadyNanos()) {}

double Tracer::Now() const {
  return static_cast<double>(SteadyNanos() - origin_ns_) * 1e-9;
}

int Tracer::Begin(const std::string& name, int parent, int op) {
  if (!enabled_) return -1;
  const double now = Now();
  spans_.push_back({name, now, now, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end = Now();
}

int Tracer::Add(const std::string& name, double start, double end,
                int parent, int op) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::SelfTimeOf(size_t index) const {
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans_) {
    if (s.parent == static_cast<int>(index)) {
      children.emplace_back(s.start, s.end);
    }
  }
  return SelfTime(spans_[index].start, spans_[index].end,
                  std::move(children));
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  return AddRaw(key, FormatDouble(value));
}
JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  return AddRaw(key, std::to_string(value));
}
JsonObject& JsonObject::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}
JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, Quote(value));
}
JsonObject& JsonObject::Add(const std::string& key, const JsonObject& value) {
  return AddRaw(key, value.str());
}
JsonObject& JsonObject::AddRaw(const std::string& key,
                               const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

uint64_t Digest(const std::string& bytes) {
  // FNV-style over 8-byte words with an xor-shift after each multiply, so
  // every input bit reaches the low bits too. Word-at-a-time keeps a ~1 MB
  // serve reply well under a millisecond on the generator thread.
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = 1469598103934665603ull ^ bytes.size();
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    h = (h ^ w) * kPrime;
    h ^= h >> 29;
  }
  for (; n > 0; ++p, --n) {
    h = (h ^ static_cast<unsigned char>(*p)) * kPrime;
    h ^= h >> 29;
  }
  return h;
}

std::string HexDigest(uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec +
                             usage.ru_stime.tv_usec) *
             1e-6;
}

double ProcessPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double SteadyNow() { return static_cast<double>(SteadyNanos()) * 1e-9; }

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

void AddLatencyDetails(const std::vector<double>& seconds,
                       RunResult* result) {
  const size_t n = seconds.size();
  result->details.Add("samples", static_cast<uint64_t>(n));
  result->details.Add("latency_p99_ms", Percentile(seconds, 0.99) * 1e3);
  result->details.Add("p99_samples_beyond",
                      static_cast<uint64_t>(SamplesBeyond(n, 0.99)));
  result->details.Add("p99_resolved", PercentileResolved(n, 0.99));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace rpmbench
