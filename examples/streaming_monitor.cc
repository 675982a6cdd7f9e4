// Streaming monitor: sliding-window recurrence alerts over a live feed.
//
// Simulates a live event feed (the paper's network-administrator use case)
// consumed by WindowedMiner. Every hour the feed's new events arrive as one
// delta; the miner keeps the exact recurring-pattern set of the last day
// and reports what changed, so the monitor raises an alert for each pattern
// that newly starts recurring — which *combinations* recur and when.
// Each delta mines only the window transactions that share an item with
// the events that arrived or expired (DESIGN.md §9).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "rpm/common/random.h"
#include "rpm/core/windowed_miner.h"
#include "rpm/timeseries/item_dictionary.h"

int main() {
  using namespace rpm;

  ItemDictionary dict;
  const ItemId cpu_spike = dict.GetOrAdd("cpu-spike");
  const ItemId oom_kill = dict.GetOrAdd("oom-kill");
  const ItemId gc_pause = dict.GetOrAdd("gc-pause");
  const ItemId deploy = dict.GetOrAdd("deploy");

  // The live feed: gc pauses hum along; twice a day a deploy happens; in
  // two windows a leaky build makes cpu-spike + oom-kill storm together.
  const Timestamp kMinutes = 7 * 1440;
  Rng rng(2025);
  std::vector<Transaction> feed;
  for (Timestamp ts = 0; ts < kMinutes; ++ts) {
    Itemset events;
    if (rng.NextBernoulli(0.30)) events.push_back(gc_pause);
    if (ts % 720 == 300) events.push_back(deploy);
    const bool leaky = (ts >= 2 * 1440 && ts < 2 * 1440 + 360) ||
                       (ts >= 5 * 1440 && ts < 5 * 1440 + 420);
    if (leaky && rng.NextBernoulli(0.5)) {
      events.push_back(cpu_spike);
      events.push_back(oom_kill);
    }
    if (events.empty()) continue;
    std::sort(events.begin(), events.end());  // Transactions are sorted.
    feed.push_back({ts, events});
  }

  // Monitor parameters: storms re-fire within 10 minutes, an interesting
  // storm sustains >= 60 periodic appearances, and one such storm inside
  // the last day is worth an alert.
  RpParams params;
  params.period = 10;
  params.min_ps = 60;
  params.min_rec = 1;
  const Timestamp kWindow = 1440;
  const Timestamp kDelta = 60;
  WindowedMiner monitor(params, kWindow);

  uint64_t deltas = 0;
  uint64_t storm_alerts = 0;
  size_t next = 0;
  for (Timestamp hour_end = kDelta; next < feed.size(); hour_end += kDelta) {
    std::vector<Transaction> batch;
    while (next < feed.size() && feed[next].ts < hour_end) {
      batch.push_back(feed[next++]);
    }
    PatternDelta delta = monitor.ApplyDelta(batch);
    if (!delta.applied) {
      std::fprintf(stderr, "feed error: %s\n",
                   delta.status.ToString().c_str());
      return 2;
    }
    ++deltas;
    for (const RecurringPattern& p : delta.added) {
      std::string names;
      for (const std::string& name : dict.NamesOf(p.items)) {
        names += (names.empty() ? "{" : ", ") + name;
      }
      names += "}";
      const PeriodicInterval& run = p.intervals.back();
      std::printf("[t=%5lld] ALERT %-22s recurring in the last day "
                  "(run since t=%lld, %llu appearances)\n",
                  static_cast<long long>(monitor.now()), names.c_str(),
                  static_cast<long long>(run.begin),
                  static_cast<unsigned long long>(run.periodic_support));
      if (p.items == Itemset{cpu_spike, oom_kill}) ++storm_alerts;
    }
  }

  const WindowedCounters& counters = monitor.counters();
  std::printf("\nfeed done: %llu hourly deltas, %llu events up to t=%lld, "
              "sub-mines over %llu transactions in total\n",
              static_cast<unsigned long long>(deltas),
              static_cast<unsigned long long>(counters.timestamps_appended),
              static_cast<long long>(monitor.now()),
              static_cast<unsigned long long>(
                  counters.subproblem_transactions));

  // The punchline: the storm pair is flagged once per incident window.
  if (storm_alerts == 2) {
    std::printf("{cpu-spike, oom-kill} recovered in both incident "
                "windows.\n");
    return 0;
  }
  std::printf("storm pair alerted %llu time(s), expected 2 (unexpected)\n",
              static_cast<unsigned long long>(storm_alerts));
  return 1;
}
