// Seeded input generation, in a separate process from the measurement.
//
// Each workload mines fixed dataset instances -- the generators' own
// default seeds, as the paper mines one T10I4D100K and one Shop-14. The
// workload seed picks a statistically equivalent variant of them:
//   * T10I4D100K transactions are i.i.d. draws, so the seed permutes
//     which itemset lands on which timestamp (supports, and with them the
//     candidate items and the RP-tree's paths, are unchanged);
//   * time-structured streams (Shop-14, the dense burst stream) keep
//     their timeline; the seed only renames the items (RenameItems), so
//     the output bytes differ per seed while the work does not.
// Regenerating the data from the seed changed the work per job up to 5x
// between seeds (mine-dense: 186-898 ms), and so did rotating the dense
// stream by whole days (490-1399 ms): its pattern lattice hangs on where
// bursts fall. No regression bound survives that. The same seed always
// yields identical files.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "rpm/gen/hashtag_generator.h"
#include "rpm/gen/paper_datasets.h"
#include "rpm/timeseries/io/spmf_io.h"

namespace rpmbench {

namespace {

/// Default seeds of the paper-dataset generators (gen/paper_datasets.h)
/// and of bench_hotpath's dense stream.
constexpr uint64_t kQuestSeed = 42;
constexpr uint64_t kShopSeed = 7;
constexpr uint64_t kDenseSeed = 4242;

/// Keeps the timestamp sequence and permutes which transaction's items
/// sit at each timestamp.
rpm::TransactionDatabase PermuteOrder(const rpm::TransactionDatabase& db,
                                      uint64_t seed) {
  std::vector<rpm::Transaction> txns = db.transactions();
  std::mt19937_64 rng(seed);
  std::shuffle(txns.begin(), txns.end(), rng);
  for (size_t i = 0; i < txns.size(); ++i) txns[i].ts = db.transaction(i).ts;
  return rpm::TransactionDatabase(std::move(txns), db.dictionary());
}

/// Renames the items by a seeded permutation of their names. Ids follow
/// first appearance in the file, so the mining work is unchanged; the
/// names, and with them the output bytes, differ per seed.
rpm::TransactionDatabase RenameItems(const rpm::TransactionDatabase& db,
                                     uint64_t seed) {
  const rpm::ItemId n = db.ItemUniverseSize();
  std::vector<std::string> names(n);
  for (rpm::ItemId i = 0; i < n; ++i) names[i] = db.dictionary().NameOf(i);
  std::mt19937_64 rng(seed);
  std::shuffle(names.begin(), names.end(), rng);
  rpm::ItemDictionary dict;
  for (const std::string& name : names) dict.GetOrAdd(name);
  return rpm::TransactionDatabase(db.transactions(), std::move(dict));
}

/// The dense burst stream: 50 hashtags on every minute plus overlapping
/// multi-day co-occurrence bursts, so ts-lists form long periodic runs.
rpm::TransactionDatabase MakeDenseStream() {
  rpm::gen::HashtagParams p;
  p.num_minutes = 40000;
  p.num_hashtags = 50;
  p.background_rate = 1.0;
  p.daily_dropout_base = 0.0;
  p.daily_dropout_slope = 0.0;
  p.num_random_events = 17;
  p.min_event_tags = 2;
  p.max_event_tags = 4;
  p.min_event_windows = 1;
  p.max_event_windows = 2;
  p.min_event_minutes = 2 * 1440;
  p.max_event_minutes = 6 * 1440;
  p.event_fire_prob = 0.9;
  p.seed = kDenseSeed;
  return rpm::gen::GenerateHashtagStream(p).db;
}

/// Mean length of the items' periodic runs: maximal chains of an item's
/// timestamps whose consecutive gaps are <= `per`.
double AverageRunLength(const rpm::TransactionDatabase& db, int64_t per) {
  std::vector<rpm::Timestamp> last(db.ItemUniverseSize(), 0);
  std::vector<bool> seen(db.ItemUniverseSize(), false);
  uint64_t runs = 0, timestamps = 0;
  for (const rpm::Transaction& tr : db.transactions()) {
    for (rpm::ItemId item : tr.items) {
      if (!seen[item] || tr.ts - last[item] > per) ++runs;
      seen[item] = true;
      last[item] = tr.ts;
      ++timestamps;
    }
  }
  return runs == 0 ? 0.0 : static_cast<double>(timestamps) / runs;
}

JsonObject ShapeOf(const rpm::TransactionDatabase& db, int64_t per) {
  uint64_t items = 0;
  std::vector<bool> present(db.ItemUniverseSize(), false);
  for (const rpm::Transaction& tr : db.transactions()) {
    for (rpm::ItemId item : tr.items) {
      if (!present[item]) ++items;
      present[item] = true;
    }
  }
  JsonObject shape;
  shape.Add("transactions", static_cast<uint64_t>(db.size()));
  shape.Add("items", items);
  shape.Add("avg_length",
            db.empty() ? 0.0
                       : static_cast<double>(db.TotalItemOccurrences()) /
                             static_cast<double>(db.size()));
  shape.Add("avg_run_len_at_per", AverageRunLength(db, per));
  shape.Add("per", static_cast<uint64_t>(per));
  return shape;
}

bool Write(const rpm::TransactionDatabase& db, const std::string& path) {
  rpm::Status s = rpm::WriteTimestampedSpmfFile(db, path);
  if (!s.ok()) std::fprintf(stderr, "write %s: %s\n", path.c_str(),
                            s.ToString().c_str());
  return s.ok();
}

/// Days [kWindowFirstDay, kWindowFirstDay + kWindowDays) of Shop-14:
/// one day of priming and the week of slides window-slide replays.
rpm::TransactionDatabase MakeWindowStream() {
  const rpm::TransactionDatabase shop =
      rpm::gen::MakeShop14(1.0, kShopSeed).db;
  const rpm::Timestamp begin = shop.start_ts() + kWindowFirstDay * 1440;
  std::vector<rpm::Transaction> txns;
  for (const rpm::Transaction& tr : shop.transactions()) {
    if (tr.ts < begin) continue;
    if (tr.ts - begin >= kWindowDays * 1440) break;
    txns.push_back(tr);
  }
  return rpm::TransactionDatabase(std::move(txns), shop.dictionary());
}

}  // namespace

bool GenerateInputs(const std::string& workload, uint64_t seed,
                    const std::string& dir) {
  JsonObject shape;
  if (workload == "mine-sparse") {
    const rpm::TransactionDatabase db =
        PermuteOrder(rpm::gen::MakeT10I4D100K(1.0, kQuestSeed), seed);
    if (!Write(db, dir + "/" + kSparse.file)) return false;
    shape = ShapeOf(db, kSparse.per);
  } else if (workload == "mine-dense") {
    const rpm::TransactionDatabase db = RenameItems(MakeDenseStream(), seed);
    if (!Write(db, dir + "/" + kDense.file)) return false;
    shape = ShapeOf(db, kDense.per);
  } else if (workload == "serve-mixed") {
    for (int variant = 0; variant < 2; ++variant) {
      const uint64_t k = static_cast<uint64_t>(variant);
      const rpm::TransactionDatabase shop =
          RenameItems(rpm::gen::MakeShop14(kServeScale, kShopSeed + k).db, seed);
      const rpm::TransactionDatabase t10 = PermuteOrder(
          rpm::gen::MakeT10I4D100K(kServeScale, kQuestSeed + k), seed);
      if (!Write(shop, dir + "/" + ServeFile("shop", variant)) ||
          !Write(t10, dir + "/" + ServeFile("t10", variant))) {
        return false;
      }
      if (variant == 0) {
        shape.Add("shop", ShapeOf(shop, 720));
        shape.Add("t10", ShapeOf(t10, 720));
      }
    }
  } else if (workload == "window-slide") {
    const rpm::TransactionDatabase db = RenameItems(MakeWindowStream(), seed);
    if (!Write(db, dir + "/" + kStreamFile)) return false;
    shape = ShapeOf(db, kWindowPer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return false;
  }
  std::ofstream out(dir + "/shape.json");
  out << shape.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace rpmbench
