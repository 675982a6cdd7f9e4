#include "rpm/verify/case_generator.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "rpm/common/random.h"
#include "rpm/timeseries/tdb_builder.h"

namespace rpm::verify {

namespace {

constexpr Timestamp kInt64Max = std::numeric_limits<Timestamp>::max();
constexpr Timestamp kInt64Min = std::numeric_limits<Timestamp>::min();

/// Shape knobs one regime hands to the shared transaction filler.
struct Shape {
  uint32_t num_items = 6;
  size_t num_timestamps = 40;
  double item_prob = 0.3;
  bool plant_burst = true;
};

/// Strictly increasing timeline: `start`, then `gaps` applied in order.
/// Gap sums are computed in uint64, so callers may place `start` anywhere
/// in the int64 range as long as start + sum(gaps) does not pass
/// INT64_MAX (callers arrange that).
TimestampList TimelineFrom(Timestamp start,
                           const std::vector<uint64_t>& gaps) {
  TimestampList ts;
  ts.reserve(gaps.size() + 1);
  uint64_t cursor = static_cast<uint64_t>(start);
  ts.push_back(start);
  for (uint64_t gap : gaps) {
    cursor += gap;
    ts.push_back(static_cast<Timestamp>(cursor));
  }
  return ts;
}

std::vector<uint64_t> RandomGaps(Rng* rng, size_t count, uint64_t lo,
                                 uint64_t hi) {
  std::vector<uint64_t> gaps(count);
  for (uint64_t& g : gaps) g = lo + rng->NextUint64(hi - lo + 1);
  return gaps;
}

/// Fills transactions over `timeline`: background item draws plus one
/// planted burst pair over a window (so random cases actually contain
/// recurring structure). Timestamps whose transaction comes up empty are
/// simply skipped — the paper's model allows timestamps with no events.
TransactionDatabase FillTransactions(Rng* rng, const Shape& shape,
                                     const TimestampList& timeline) {
  ItemId burst_a = 0, burst_b = 0;
  size_t burst_begin = 0, burst_end = 0;
  if (shape.plant_burst && shape.num_items >= 1 && !timeline.empty()) {
    burst_a = static_cast<ItemId>(rng->NextUint64(shape.num_items));
    burst_b = static_cast<ItemId>(rng->NextUint64(shape.num_items));
    burst_begin = rng->NextUint64(timeline.size());
    burst_end = std::min(timeline.size(),
                         burst_begin + 4 + rng->NextUint64(timeline.size()));
  }
  TdbBuilder builder;
  Itemset txn;
  for (size_t i = 0; i < timeline.size(); ++i) {
    txn.clear();
    for (ItemId item = 0; item < shape.num_items; ++item) {
      if (rng->NextBernoulli(shape.item_prob)) txn.push_back(item);
    }
    if (shape.plant_burst && i >= burst_begin && i < burst_end &&
        rng->NextBernoulli(0.85)) {
      txn.push_back(burst_a);
      txn.push_back(burst_b);
    }
    if (!txn.empty()) builder.AddTransaction(timeline[i], txn);
  }
  return builder.Build();
}

RpParams RandomParams(Rng* rng, Timestamp period) {
  RpParams params;
  params.period = period;
  params.min_ps = 1 + rng->NextUint64(4);
  params.min_rec = 1 + rng->NextUint64(3);
  // Tolerant mode every fifth draw or so: a different bound and interval
  // logic worth differential coverage (the incremental RP-list implements
  // only the exact model; the cross-checker skips check (c) for these).
  params.max_gap_violations =
      rng->NextBernoulli(0.2) ? 1 + static_cast<uint32_t>(rng->NextUint64(2))
                              : 0;
  return params;
}

VerifyCase MakeDense(Rng* rng) {
  Shape shape;
  shape.num_items = 3 + static_cast<uint32_t>(rng->NextUint64(5));
  shape.num_timestamps = 20 + rng->NextUint64(60);
  shape.item_prob = 0.35;
  Timestamp start = rng->NextInt64(-50, 50);
  TimestampList timeline = TimelineFrom(
      start, RandomGaps(rng, shape.num_timestamps - 1, 1, 3));
  VerifyCase c;
  c.regime = "dense";
  c.db = FillTransactions(rng, shape, timeline);
  c.params = RandomParams(rng, 1 + rng->NextInt64(1, 5));
  return c;
}

VerifyCase MakeSparse(Rng* rng) {
  Shape shape;
  shape.num_items = 2 + static_cast<uint32_t>(rng->NextUint64(4));
  shape.num_timestamps = 15 + rng->NextUint64(40);
  shape.item_prob = 0.15;
  TimestampList timeline = TimelineFrom(
      rng->NextInt64(-1000, 1000),
      RandomGaps(rng, shape.num_timestamps - 1, 1, 12));
  VerifyCase c;
  c.regime = "sparse";
  c.db = FillTransactions(rng, shape, timeline);
  c.params = RandomParams(rng, rng->NextInt64(2, 10));
  return c;
}

VerifyCase MakePeriodBoundary(Rng* rng) {
  // Every gap is period-1, period, or period+1: the <= comparison decides
  // each transition, so off-by-one bugs in the interval logic surface here.
  const Timestamp period = rng->NextInt64(2, 5);
  Shape shape;
  shape.num_items = 2 + static_cast<uint32_t>(rng->NextUint64(4));
  shape.num_timestamps = 25 + rng->NextUint64(50);
  shape.item_prob = 0.4;
  std::vector<uint64_t> gaps(shape.num_timestamps - 1);
  for (uint64_t& g : gaps) {
    g = static_cast<uint64_t>(period) - 1 + rng->NextUint64(3);
    if (g == 0) g = 1;
  }
  TimestampList timeline = TimelineFrom(rng->NextInt64(-20, 20), gaps);
  VerifyCase c;
  c.regime = "period_boundary";
  c.db = FillTransactions(rng, shape, timeline);
  c.params = RandomParams(rng, period);
  return c;
}

VerifyCase MakeNegative(Rng* rng) {
  Shape shape;
  shape.num_items = 2 + static_cast<uint32_t>(rng->NextUint64(4));
  shape.num_timestamps = 20 + rng->NextUint64(40);
  shape.item_prob = 0.3;
  // Entirely below zero: start low enough that the whole timeline stays
  // negative (max total span is num_timestamps * 4).
  Timestamp start =
      -static_cast<Timestamp>(shape.num_timestamps) * 4 -
      rng->NextInt64(1, 5000);
  TimestampList timeline = TimelineFrom(
      start, RandomGaps(rng, shape.num_timestamps - 1, 1, 4));
  VerifyCase c;
  c.regime = "negative_ts";
  c.db = FillTransactions(rng, shape, timeline);
  c.params = RandomParams(rng, rng->NextInt64(1, 5));
  return c;
}

VerifyCase MakeInt64Extreme(Rng* rng) {
  Shape shape;
  shape.num_items = 2 + static_cast<uint32_t>(rng->NextUint64(3));
  shape.num_timestamps = 12 + rng->NextUint64(20);
  shape.item_prob = 0.45;
  const size_t n = shape.num_timestamps;
  std::vector<uint64_t> gaps = RandomGaps(rng, n - 1, 1, 3);
  TimestampList timeline;
  switch (rng->NextUint64(3)) {
    case 0: {
      // Hugging INT64_MIN.
      timeline = TimelineFrom(kInt64Min + rng->NextInt64(0, 3), gaps);
      break;
    }
    case 1: {
      // Hugging INT64_MAX: walk the gap sum backwards from the top.
      uint64_t span = 0;
      for (uint64_t g : gaps) span += g;
      timeline = TimelineFrom(
          static_cast<Timestamp>(static_cast<uint64_t>(kInt64Max) - span -
                                 rng->NextUint64(4)),
          gaps);
      break;
    }
    default: {
      // Straddling: a run near INT64_MIN, then a jump to a run ending at
      // INT64_MAX — the inter-run gap exceeds int64 and overflows any
      // naive signed subtraction.
      const size_t low_n = 2 + rng->NextUint64(n / 2);
      std::vector<uint64_t> low_gaps(gaps.begin(),
                                     gaps.begin() + (low_n - 1));
      TimestampList low =
          TimelineFrom(kInt64Min + rng->NextInt64(0, 3), low_gaps);
      std::vector<uint64_t> high_gaps(gaps.begin() + (low_n - 1),
                                      gaps.end());
      uint64_t span = 0;
      for (uint64_t g : high_gaps) span += g;
      TimestampList high = TimelineFrom(
          static_cast<Timestamp>(static_cast<uint64_t>(kInt64Max) - span),
          high_gaps);
      timeline = std::move(low);
      timeline.insert(timeline.end(), high.begin(), high.end());
      break;
    }
  }
  VerifyCase c;
  c.regime = "int64_extreme";
  c.db = FillTransactions(rng, shape, timeline);
  // Mix small periods with huge ones (huge periods make *every* gap
  // periodic except the straddle jump).
  Timestamp period = rng->NextBernoulli(0.5)
                         ? rng->NextInt64(1, 4)
                         : kInt64Max / 2 + rng->NextInt64(0, 1000);
  c.params = RandomParams(rng, period);
  return c;
}

VerifyCase MakeDegenerate(Rng* rng) {
  VerifyCase c;
  c.regime = "degenerate";
  switch (rng->NextUint64(4)) {
    case 0: {
      // Empty database.
      c.db = TransactionDatabase();
      break;
    }
    case 1: {
      // One transaction.
      TdbBuilder builder;
      builder.AddTransaction(rng->NextInt64(-10, 10), {0, 1, 2});
      c.db = builder.Build();
      break;
    }
    case 2: {
      // Single item, equal gaps — one long periodic run.
      Shape shape;
      shape.num_items = 1;
      shape.num_timestamps = 10 + rng->NextUint64(20);
      shape.item_prob = 1.0;
      shape.plant_burst = false;
      const uint64_t gap = 1 + rng->NextUint64(3);
      TimestampList timeline = TimelineFrom(
          rng->NextInt64(-5, 5),
          std::vector<uint64_t>(shape.num_timestamps - 1, gap));
      c.db = FillTransactions(rng, shape, timeline);
      break;
    }
    default: {
      // Two items alternating on a sparse grid.
      TdbBuilder builder;
      Timestamp ts = rng->NextInt64(-10, 10);
      const size_t n = 8 + rng->NextUint64(16);
      for (size_t i = 0; i < n; ++i) {
        builder.AddTransaction(ts, {static_cast<ItemId>(i % 2)});
        ts += rng->NextInt64(1, 6);
      }
      c.db = builder.Build();
      break;
    }
  }
  c.params = RandomParams(rng, rng->NextInt64(1, 4));
  return c;
}

}  // namespace

VerifyCase MakeVerifyCase(uint64_t seed, uint64_t index) {
  // Decorrelate the per-case stream from (seed, index) with splitmix64 so
  // adjacent indices share no draw structure.
  uint64_t mix = seed ^ (index * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL);
  Rng rng(SplitMix64(&mix));
  // Rotate regimes for even coverage; the remaining shape is random.
  switch (index % 6) {
    case 0: return MakeDense(&rng);
    case 1: return MakeSparse(&rng);
    case 2: return MakePeriodBoundary(&rng);
    case 3: return MakeNegative(&rng);
    case 4: return MakeInt64Extreme(&rng);
    default: return MakeDegenerate(&rng);
  }
}

}  // namespace rpm::verify
