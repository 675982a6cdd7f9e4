// Differential testing: the incremental RP-list must agree with the batch
// Algorithm 1 on the scaled paper datasets, with and without expiry, and
// its candidate sets must make a subsequent RP-growth run complete (no
// pattern's item missing).

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/rp_growth.h"
#include "rpm/core/rp_list.h"
#include "rpm/core/windowed_rp_list.h"
#include "rpm/gen/paper_datasets.h"

namespace rpm {
namespace {

/// Feeds `db` into a WindowedRpList, expires every event before `cutoff`
/// (none when it is the Timestamp minimum) and compares support, Erec and
/// the candidate set against batch Algorithm 1 over the live suffix.
void ExpectStreamingMatchesBatch(const TransactionDatabase& db,
                                 const RpParams& params, Timestamp cutoff) {
  WindowedRpList streaming(params.period, params.min_ps);
  std::vector<Transaction> live;
  for (const Transaction& tr : db.transactions()) {
    for (ItemId item : tr.items) {
      ASSERT_TRUE(streaming.Append(item, tr.ts).ok());
    }
    if (tr.ts >= cutoff) live.push_back(tr);
  }
  streaming.ExpireBefore(cutoff);
  const TransactionDatabase live_db(live);
  RpList batch = BuildRpList(live_db, params);
  uint64_t live_support = 0;
  for (const RpListEntry& e : batch.entries()) {
    EXPECT_EQ(streaming.SupportOf(e.item), e.support) << "item " << e.item;
    EXPECT_EQ(streaming.ErecOf(e.item), e.erec) << "item " << e.item;
    live_support += e.support;
  }
  EXPECT_EQ(streaming.live_timestamp_count(), live_support);
  std::vector<ItemId> batch_candidates;
  for (const RpListEntry& e : batch.candidates()) {
    batch_candidates.push_back(e.item);
  }
  std::sort(batch_candidates.begin(), batch_candidates.end());
  EXPECT_EQ(streaming.CandidateItems(params.min_rec), batch_candidates);
}

constexpr Timestamp kNoExpiry = std::numeric_limits<Timestamp>::min();

/// A cutoff that expires the first half of `db`.
Timestamp MidTimestamp(const TransactionDatabase& db) {
  return db.transaction(db.size() / 2).ts;
}

TEST(StreamingBatchEquivalenceTest, QuestMini) {
  TransactionDatabase db = gen::MakeT10I4D100K(0.02, 3);
  RpParams params;
  params.period = 40;
  params.min_ps = 5;
  params.min_rec = 2;
  ExpectStreamingMatchesBatch(db, params, kNoExpiry);
  ExpectStreamingMatchesBatch(db, params, MidTimestamp(db));
}

TEST(StreamingBatchEquivalenceTest, Shop14Mini) {
  gen::GeneratedClickstream shop = gen::MakeShop14(0.03, 4);
  RpParams params;
  params.period = 90;
  params.min_ps = 15;
  params.min_rec = 1;
  ExpectStreamingMatchesBatch(shop.db, params, kNoExpiry);
  ExpectStreamingMatchesBatch(shop.db, params, MidTimestamp(shop.db));
}

TEST(StreamingBatchEquivalenceTest, TwitterMini) {
  gen::GeneratedHashtagStream tw = gen::MakeTwitter(0.02, 5);
  RpParams params;
  params.period = 60;
  params.min_ps = 30;
  params.min_rec = 1;
  ExpectStreamingMatchesBatch(tw.db, params, kNoExpiry);
  ExpectStreamingMatchesBatch(tw.db, params, MidTimestamp(tw.db));
}

TEST(StreamingBatchEquivalenceTest, CandidatesCoverEveryMinedPattern) {
  gen::GeneratedHashtagStream tw = gen::MakeTwitter(0.02, 6);
  RpParams params;
  params.period = 60;
  params.min_ps = 25;
  params.min_rec = 1;
  WindowedRpList streaming(params.period, params.min_ps);
  for (const Transaction& tr : tw.db.transactions()) {
    for (ItemId item : tr.items) {
      ASSERT_TRUE(streaming.Append(item, tr.ts).ok());
    }
  }
  std::vector<ItemId> candidates = streaming.CandidateItems(params.min_rec);
  RpGrowthResult mined = MineRecurringPatterns(tw.db, params);
  for (const RecurringPattern& p : mined.patterns) {
    for (ItemId item : p.items) {
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                     item))
          << "item " << item << " missing from streaming candidates";
    }
  }
}

}  // namespace
}  // namespace rpm
