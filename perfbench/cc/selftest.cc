// Self-tests of the benchmark's own arithmetic. `rpmbench run` executes
// them before measuring, so a broken percentile or span rule can never
// produce a result line.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.h"

namespace rpmbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentileRule() {
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  Expect(Near(Percentile(ramp, 0.5), 500), "p50 of 1..1000 is 500");
  Expect(Near(Percentile(ramp, 0.99), 990), "p99 of 1..1000 is 990");
  Expect(SamplesBeyond(1000, 0.99) == 10, "p99 of 1000 leaves 10 beyond");
  Expect(PercentileResolved(1000, 0.99), "p99 resolved at 1000 samples");
  Expect(!PercentileResolved(999, 0.99), "p99 unresolved at 999 samples");
  Expect(!PercentileResolved(12, 0.99), "p99 unresolved at 12 samples");
  Expect(PercentileResolved(20, 0.5), "p50 resolved at 20 samples");
  Expect(Near(Percentile({3, 1, 2}, 0.5), 2), "median of unsorted input");
  Expect(Near(Percentile({7}, 0.99), 7), "percentile of one sample");
  Expect(Near(Percentile({}, 0.5), 0), "percentile of no samples is 0");
}

void TestRatios() {
  const Ratio r{3, 4};
  Expect(Near(r.value(), 0.75) && r.num == 3 && r.den == 4,
         "ratio keeps its base");
  Expect(Near(Ratio{5, 0}.value(), 0), "ratio over an empty base is 0");
}

void TestDueTimeLatency() {
  // Requests due every 10 ms; the server stalls 100 ms on the first. With
  // due-time accounting the stall is charged to every request behind it.
  std::vector<OpenLoopSample> samples;
  double server_free = 0.0;
  for (int i = 0; i < 5; ++i) {
    OpenLoopSample s;
    s.due = 0.010 * i;
    s.sent = s.due + 0.001;  // Generator 1 ms late.
    const double begin = std::max(s.sent, server_free);
    server_free = begin + (i == 0 ? 0.100 : 0.001);
    s.done = server_free;
    samples.push_back(s);
  }
  Expect(Near(samples[0].latency(), 0.101), "first latency = stall + late");
  Expect(Near(samples[4].latency(), 0.102 - 0.040 + 0.003),
         "queued request pays the wait from its due time");
  Expect(Near(samples[2].lateness(), 0.001), "lateness = sent - due");
}

void TestSpanSelfTime() {
  Expect(Near(SelfTime(0, 10, {}), 10), "no children: self = duration");
  Expect(Near(SelfTime(0, 10, {{1, 3}, {5, 6}}), 7), "disjoint children");
  Expect(Near(SelfTime(0, 10, {{1, 4}, {3, 6}}), 5),
         "overlapping children count once");
  Expect(Near(SelfTime(0, 10, {{-2, 2}, {9, 12}}), 7),
         "children clipped to the parent");
  Tracer tracer(true);
  const int root = tracer.Add("op", 0, 10, -1, 0);
  tracer.Add("a", 1, 3, root, 0);
  const int b = tracer.Add("b", 4, 8, root, 0);
  tracer.Add("b.child", 5, 6, b, 0);
  Expect(Near(tracer.SelfTimeOf(static_cast<size_t>(root)), 4),
         "tracer self time ignores grandchildren");
  Expect(Near(tracer.SelfTimeOf(static_cast<size_t>(b)), 3),
         "tracer self time of a nested span");
  Tracer off(false);
  Expect(off.Begin("x", -1, 0) == -1 && off.spans().empty(),
         "disabled tracer records nothing");
}

}  // namespace

bool RunSelfTests() {
  failures = 0;
  TestPercentileRule();
  TestRatios();
  TestDueTimeLatency();
  TestSpanSelfTime();
  return failures == 0;
}

}  // namespace rpmbench
