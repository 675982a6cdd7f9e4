#include "rpm/core/windowed_rp_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "rpm/core/measures.h"
#include "rpm/core/rp_list.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::G;
using ::rpm::testing::MakeRandomDb;
using ::rpm::testing::PaperExampleDb;
using ::rpm::testing::PaperExampleParams;
using ::rpm::testing::RandomDbSpec;

// The invariant under test everywhere: after any Append/ExpireBefore/
// Compact sequence the aggregates equal what a batch Algorithm 1 scan over
// the live window contents would report. Without ExpireBefore the window
// is unbounded and the list is plain incremental Algorithm 1.

/// Compares every aggregate of `window`, whose events below `cutoff` are
/// expired, against a batch RP-list over the transactions of `db` at or
/// after `cutoff`.
void ExpectWindowMatchesBatch(const WindowedRpList& window,
                              const TransactionDatabase& db,
                              Timestamp cutoff) {
  std::vector<Transaction> live;
  for (const Transaction& tr : db.transactions()) {
    if (tr.ts >= cutoff) live.push_back(tr);
  }
  const TransactionDatabase live_db(live);
  RpParams params;
  params.period = window.period();
  params.min_ps = window.min_ps();
  params.min_rec = 1;
  const RpList batch = BuildRpList(live_db, params);
  for (ItemId item = 0; item < db.ItemUniverseSize(); ++item) {
    uint64_t support = 0, erec = 0;
    for (const RpListEntry& e : batch.entries()) {
      if (e.item != item) continue;
      support = e.support;
      erec = e.erec;
    }
    EXPECT_EQ(window.SupportOf(item), support) << "item " << item;
    EXPECT_EQ(window.ErecOf(item), erec) << "item " << item;
    const std::vector<PeriodicInterval> intervals = FindInterestingIntervals(
        live_db.TimestampsOf({item}), params.period, params.min_ps);
    EXPECT_EQ(window.InterestingIntervalsOf(item), intervals)
        << "item " << item;
    EXPECT_EQ(window.RecurrenceOf(item), intervals.size()) << "item " << item;
    const TimestampList expected_ts = live_db.TimestampsOf({item});
    const TsRun live_ts = window.LiveTimestamps(item);
    EXPECT_EQ(TimestampList(live_ts.data, live_ts.data + live_ts.size),
              expected_ts)
        << "item " << item;
  }
}

WindowedRpList FeedWindowedPaperExample() {
  WindowedRpList window(/*period=*/2, /*min_ps=*/3);
  const TransactionDatabase db = PaperExampleDb();
  for (const Transaction& tr : db.transactions()) {
    for (ItemId item : tr.items) {
      EXPECT_TRUE(window.Append(item, tr.ts).ok());
    }
  }
  return window;
}

TEST(WindowedRpListTest, MatchesBatchBeforeAnyExpiry) {
  WindowedRpList window = FeedWindowedPaperExample();
  ExpectWindowMatchesBatch(window, PaperExampleDb(),
                           std::numeric_limits<Timestamp>::min());
}

TEST(WindowedRpListTest, CandidatesMatchBatch) {
  WindowedRpList window = FeedWindowedPaperExample();
  RpList batch = BuildRpList(PaperExampleDb(), PaperExampleParams());
  std::vector<ItemId> expected;
  for (const RpListEntry& e : batch.candidates()) expected.push_back(e.item);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(window.CandidateItems(2), expected);
}

TEST(WindowedRpListTest, InterestingIntervalsOfItemG) {
  // TS^g = {1,5,6,7,12,14}: runs {1}, {5,6,7}, {12,14}. Only {5,6,7} is
  // interesting at minPS=3; the newest run {12,14} is still too short.
  WindowedRpList window = FeedWindowedPaperExample();
  ASSERT_EQ(window.InterestingIntervalsOf(G).size(), 1u);
  EXPECT_EQ(window.InterestingIntervalsOf(G)[0], (PeriodicInterval{5, 7, 3}));
  EXPECT_EQ(window.RecurrenceOf(G), 1u);
  EXPECT_EQ(window.ErecOf(G), 1u);
}

TEST(WindowedRpListTest, NewestRunCountsTowardRecurrenceWhenQualifying) {
  WindowedRpList window(/*period=*/2, /*min_ps=*/2);
  for (Timestamp ts : {1, 2, 10, 11, 12}) {
    ASSERT_TRUE(window.Append(0, ts).ok());
  }
  // Closed run {1,2} (ps 2) + newest run {10,11,12} (ps 3), both
  // interesting.
  EXPECT_EQ(window.RecurrenceOf(0), 2u);
  EXPECT_EQ(window.ErecOf(0), 2u);
  EXPECT_EQ(window.InterestingIntervalsOf(0),
            (std::vector<PeriodicInterval>{{1, 2, 2}, {10, 12, 3}}));
}

TEST(WindowedRpListTest, UnseenItemIsZeroEverything) {
  WindowedRpList window(/*period=*/2, /*min_ps=*/2);
  ASSERT_TRUE(window.Append(0, 1).ok());
  for (ItemId item : {ItemId{1}, ItemId{42}}) {
    EXPECT_EQ(window.SupportOf(item), 0u);
    EXPECT_EQ(window.ErecOf(item), 0u);
    EXPECT_EQ(window.RecurrenceOf(item), 0u);
    EXPECT_TRUE(window.InterestingIntervalsOf(item).empty());
    EXPECT_EQ(window.LiveTimestamps(item).size, 0u);
  }
  EXPECT_TRUE(window.CandidateItems(1).empty());
}

TEST(WindowedRpListTest, EventCountersAdvance) {
  WindowedRpList window = FeedWindowedPaperExample();
  EXPECT_EQ(window.counters().timestamps_appended, 46u);
  EXPECT_EQ(window.live_timestamp_count(), 46u);
  EXPECT_EQ(window.last_timestamp(), 14);
  EXPECT_EQ(window.ItemUniverseSize(), 7u);
}

TEST(WindowedRpListTest, MatchesBatchOnRandomStreams) {
  for (uint64_t seed = 71; seed <= 76; ++seed) {
    RandomDbSpec spec;
    spec.num_items = 8;
    spec.num_timestamps = 80;
    const TransactionDatabase db = MakeRandomDb(spec, seed);
    WindowedRpList window(/*period=*/3, /*min_ps=*/2);
    for (const Transaction& tr : db.transactions()) {
      for (ItemId item : tr.items) {
        ASSERT_TRUE(window.Append(item, tr.ts).ok());
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectWindowMatchesBatch(window, db,
                             std::numeric_limits<Timestamp>::min());
  }
}

TEST(WindowedRpListTest, Figure4IntermediateStates) {
  // Algorithm 1's trace (Figure 4(a)-(c)), checkable because the list
  // exposes its state after every transaction.
  using rpm::testing::A;
  using rpm::testing::B;
  using rpm::testing::C;
  using rpm::testing::D;
  using rpm::testing::E;
  WindowedRpList window(/*period=*/2, /*min_ps=*/3);
  const TransactionDatabase db = PaperExampleDb();
  auto feed = [&](size_t index) {
    const Transaction& tr = db.transaction(index);
    for (ItemId item : tr.items) ASSERT_TRUE(window.Append(item, tr.ts).ok());
  };
  auto live = [&](ItemId item) {
    const TsRun run = window.LiveTimestamps(item);
    return TimestampList(run.data, run.data + run.size);
  };

  // (a) After the first transaction {1: a,b,g}.
  feed(0);
  for (ItemId item : {A, B, G}) {
    EXPECT_EQ(window.SupportOf(item), 1u);
    EXPECT_EQ(window.ErecOf(item), 0u);
    EXPECT_EQ(live(item), (TimestampList{1}));
  }

  // (b) After the second transaction {2: a,c,d}.
  feed(1);
  EXPECT_EQ(window.SupportOf(A), 2u);
  EXPECT_EQ(live(A), (TimestampList{1, 2}));
  EXPECT_EQ(window.SupportOf(C), 1u);
  EXPECT_EQ(window.SupportOf(D), 1u);

  // (c) After the seventh transaction {7: a,b,c,g}: the text notes erec of
  // 'a' and 'b' ticked from 0 to 1 and their run restarted.
  for (size_t i = 2; i < 7; ++i) feed(i);
  EXPECT_EQ(window.SupportOf(A), 5u);
  EXPECT_EQ(window.ErecOf(A), 1u);  // Closed run {1,2,3,4} gave floor(4/3).
  EXPECT_EQ(window.InterestingIntervalsOf(A),
            (std::vector<PeriodicInterval>{{1, 4, 4}}));
  EXPECT_EQ(live(A).back(), 7);  // New run {7}.
  EXPECT_EQ(window.SupportOf(B), 4u);
  EXPECT_EQ(window.ErecOf(B), 1u);  // Closed run {1,3,4}.
  EXPECT_EQ(window.InterestingIntervalsOf(B),
            (std::vector<PeriodicInterval>{{1, 4, 3}}));
  EXPECT_EQ(window.SupportOf(G), 4u);
  EXPECT_EQ(window.InterestingIntervalsOf(G),
            (std::vector<PeriodicInterval>{{5, 7, 3}}));
  EXPECT_EQ(window.SupportOf(C), 4u);
  EXPECT_EQ(window.InterestingIntervalsOf(C),
            (std::vector<PeriodicInterval>{{2, 7, 4}}));
  EXPECT_EQ(window.SupportOf(E), 3u);
  EXPECT_EQ(window.InterestingIntervalsOf(E),
            (std::vector<PeriodicInterval>{{3, 6, 3}}));
}

TEST(WindowedRpListTest, RejectsInvalidItemSentinel) {
  // kInvalidItem is uint32 max: accepting it would make the per-item state
  // resize compute item + 1 == 0 and then index out of bounds.
  WindowedRpList window(/*period=*/2, /*min_ps=*/2);
  Status s = window.Append(kInvalidItem, 1);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(window.ItemUniverseSize(), 0u);
  EXPECT_EQ(window.counters().timestamps_appended, 0u);
}

TEST(WindowedRpListTest, ExtremeTimestampGapClosesRun) {
  // The gap INT64_MIN -> INT64_MAX is 2^64 - 1 > period: two singleton
  // runs. A wrapped signed subtraction would fuse them.
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  WindowedRpList window(/*period=*/10, /*min_ps=*/1);
  ASSERT_TRUE(window.Append(0, kMin).ok());
  ASSERT_TRUE(window.Append(0, kMax).ok());
  EXPECT_EQ(window.ErecOf(0), 2u);
  EXPECT_EQ(window.InterestingIntervalsOf(0),
            (std::vector<PeriodicInterval>{{kMin, kMin, 1},
                                           {kMax, kMax, 1}}));
}

// --- An unbounded WindowedRpList (ExpireBefore never called) is the
// streaming RP-list: incremental Algorithm 1 over an event stream. These
// cases pin that mode on its own.

TEST(StreamingRpListTest, MatchesBatchRpListOnPaperExample) {
  WindowedRpList streaming = FeedWindowedPaperExample();
  RpList batch = BuildRpList(PaperExampleDb(), PaperExampleParams());
  for (const RpListEntry& e : batch.entries()) {
    EXPECT_EQ(streaming.SupportOf(e.item), e.support) << "item " << e.item;
    EXPECT_EQ(streaming.ErecOf(e.item), e.erec) << "item " << e.item;
  }
}

TEST(StreamingRpListTest, RejectsOutOfOrderEvents) {
  WindowedRpList streaming(/*period=*/2, /*min_ps=*/2);
  ASSERT_TRUE(streaming.Append(0, 10).ok());
  Status s = streaming.Append(0, 9);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  // The rejected event left no trace.
  EXPECT_EQ(streaming.SupportOf(0), 1u);
  EXPECT_EQ(streaming.counters().timestamps_appended, 1u);
  EXPECT_EQ(streaming.last_timestamp(), 10);
  // Equal timestamps are fine (same transaction, different items).
  EXPECT_TRUE(streaming.Append(1, 10).ok());
}

TEST(StreamingRpListTest, DuplicateItemInSameTimestampIgnored) {
  WindowedRpList streaming(/*period=*/2, /*min_ps=*/2);
  ASSERT_TRUE(streaming.Append(0, 5).ok());
  ASSERT_TRUE(streaming.Append(0, 5).ok());
  EXPECT_EQ(streaming.SupportOf(0), 1u);
  EXPECT_EQ(streaming.counters().timestamps_appended, 1u);
}

TEST(StreamingRpListTest, DuplicateItemsInTransactionCountOnce) {
  // Matches what batch Algorithm 1 sees after TdbBuilder deduplication.
  WindowedRpList streaming(/*period=*/2, /*min_ps=*/2);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(streaming.Append(3, 1).ok());
  EXPECT_EQ(streaming.SupportOf(3), 1u);
  EXPECT_EQ(streaming.counters().timestamps_appended, 1u);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(streaming.Append(3, 2).ok());
  EXPECT_EQ(streaming.SupportOf(3), 2u);
  EXPECT_EQ(streaming.InterestingIntervalsOf(3),
            (std::vector<PeriodicInterval>{{1, 2, 2}}));
  EXPECT_EQ(streaming.ErecOf(3), 1u);
}

TEST(StreamingRpListDeathTest, InvalidConstruction) {
  // Negative periods, down to the most negative timestamp, are rejected
  // like a zero period.
  EXPECT_DEATH(WindowedRpList(-1, 1), "Check failed");
  EXPECT_DEATH(WindowedRpList(std::numeric_limits<Timestamp>::min(), 1),
               "Check failed");
}

TEST(WindowedRpListTest, MatchesBatchAfterEveryCutoff) {
  // Slide the cutoff across the whole example one timestamp at a time;
  // after each ExpireBefore the live aggregates must equal a batch scan
  // of the suffix. This covers cutoffs inside runs, at run starts and
  // past entire runs.
  const TransactionDatabase db = PaperExampleDb();
  WindowedRpList window = FeedWindowedPaperExample();
  for (Timestamp cutoff = 1; cutoff <= 15; ++cutoff) {
    window.ExpireBefore(cutoff);
    ExpectWindowMatchesBatch(window, db, cutoff);
  }
  EXPECT_EQ(window.live_timestamp_count(), 0u);
}

TEST(WindowedRpListTest, ExpiryExactlyOnPeriodBoundary) {
  // Item with one run {10, 12, 14} at period 2. A cutoff AT an element
  // keeps it (expiry is strictly-below); the surviving suffix is still
  // one run with the shortened ps.
  WindowedRpList window(/*period=*/2, /*min_ps=*/2);
  for (Timestamp ts : {10, 12, 14}) {
    ASSERT_TRUE(window.Append(0, ts).ok());
  }
  ASSERT_EQ(window.ErecOf(0), 1u);
  window.ExpireBefore(12);
  EXPECT_EQ(window.SupportOf(0), 2u);  // {12, 14} survive.
  EXPECT_EQ(window.ErecOf(0), 1u);     // ps=2 still >= min_ps.
  ASSERT_EQ(window.InterestingIntervalsOf(0).size(), 1u);
  EXPECT_EQ(window.InterestingIntervalsOf(0)[0],
            (PeriodicInterval{12, 14, 2}));
  window.ExpireBefore(13);
  EXPECT_EQ(window.SupportOf(0), 1u);  // {14}: ps=1 < min_ps.
  EXPECT_EQ(window.ErecOf(0), 0u);
  EXPECT_TRUE(window.InterestingIntervalsOf(0).empty());
}

TEST(WindowedRpListTest, DuplicateAppendAtTheExpiryCut) {
  // An item appended twice at one timestamp dedupes to one event; when
  // the cutoff lands exactly there the single survivor must not be
  // double-counted by expiry either.
  WindowedRpList window(/*period=*/2, /*min_ps=*/1);
  ASSERT_TRUE(window.Append(0, 5).ok());
  ASSERT_TRUE(window.Append(0, 7).ok());
  ASSERT_TRUE(window.Append(0, 7).ok());  // Dedup no-op.
  EXPECT_EQ(window.SupportOf(0), 2u);
  EXPECT_EQ(window.counters().timestamps_appended, 2u);
  window.ExpireBefore(7);
  EXPECT_EQ(window.SupportOf(0), 1u);
  EXPECT_EQ(window.counters().timestamps_retired, 1u);
  // Appending again at the cut timestamp is legal (ts == cutoff) and
  // dedupes against the live survivor.
  EXPECT_TRUE(window.Append(0, 7).ok());
  EXPECT_EQ(window.SupportOf(0), 1u);
}

TEST(WindowedRpListTest, RejectsAppendBelowCutoffOrOutOfOrder) {
  WindowedRpList window(/*period=*/2, /*min_ps=*/1);
  ASSERT_TRUE(window.Append(0, 10).ok());
  Status out_of_order = window.Append(0, 9);
  EXPECT_TRUE(out_of_order.IsInvalidArgument()) << out_of_order.ToString();
  // Equal timestamps are fine (same transaction, different items).
  EXPECT_TRUE(window.Append(1, 10).ok());
  window.ExpireBefore(12);
  Status below = window.Append(0, 11);
  EXPECT_FALSE(below.ok());
  EXPECT_TRUE(window.Append(0, 12).ok());
}

TEST(WindowedRpListTest, Int64ExtremeExpiry) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  WindowedRpList window(/*period=*/10, /*min_ps=*/1);
  ASSERT_TRUE(window.Append(0, kMin).ok());
  ASSERT_TRUE(window.Append(0, kMin + 5).ok());
  ASSERT_TRUE(window.Append(0, kMax).ok());
  // One run {kMin, kMin+5} (gap 5 <= 10) + singleton {kMax}: the 2^64-1
  // wide gap must not wrap into "within period".
  EXPECT_EQ(window.ErecOf(0), 3u);
  window.ExpireBefore(kMin + 1);
  EXPECT_EQ(window.SupportOf(0), 2u);
  EXPECT_EQ(window.ErecOf(0), 2u);
  window.ExpireBefore(kMax);
  EXPECT_EQ(window.SupportOf(0), 1u);
  EXPECT_EQ(window.InterestingIntervalsOf(0)[0],
            (PeriodicInterval{kMax, kMax, 1}));
}

TEST(WindowedRpListTest, CompactPreservesAggregatesAndCountsOnce) {
  const TransactionDatabase db = PaperExampleDb();
  WindowedRpList window = FeedWindowedPaperExample();
  window.ExpireBefore(7);
  const size_t live = window.live_timestamp_count();
  ASSERT_LT(live, window.stored_timestamp_count());
  window.Compact();
  EXPECT_EQ(window.stored_timestamp_count(), live);
  EXPECT_EQ(window.live_timestamp_count(), live);
  EXPECT_EQ(window.counters().compactions, 1u);
  ExpectWindowMatchesBatch(window, db, 7);
  // A second Compact with nothing to reclaim is not counted.
  window.Compact();
  EXPECT_EQ(window.counters().compactions, 1u);
  // The structure keeps working after compaction: item a had {7,11,12,14}
  // live, the append makes it five.
  EXPECT_TRUE(window.Append(0, 20).ok());
  EXPECT_EQ(window.SupportOf(0), 5u);
}

TEST(WindowedRpListTest, StaleCutoffIsANoOp) {
  WindowedRpList window(/*period=*/2, /*min_ps=*/1);
  ASSERT_TRUE(window.Append(0, 5).ok());
  ASSERT_TRUE(window.Append(0, 6).ok());
  window.ExpireBefore(6);
  const uint64_t retired = window.counters().timestamps_retired;
  window.ExpireBefore(4);  // Regressing cutoff: must change nothing.
  window.ExpireBefore(6);  // Same cutoff: idempotent.
  EXPECT_EQ(window.counters().timestamps_retired, retired);
  EXPECT_EQ(window.SupportOf(0), 1u);
  EXPECT_EQ(window.cutoff(), Timestamp{6});
}

TEST(WindowedRpListDeathTest, InvalidConstruction) {
  EXPECT_DEATH(WindowedRpList(0, 1), "Check failed");
  EXPECT_DEATH(WindowedRpList(1, 0), "Check failed");
}

}  // namespace
}  // namespace rpm
