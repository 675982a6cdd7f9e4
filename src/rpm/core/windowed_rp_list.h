// Incremental RP-list: Algorithm 1 maintained per item over a stream of
// appended events, with optional expiry of a time-ordered prefix.
//
// A monitoring deployment (the paper's network-administration use case)
// cannot re-scan history on every event. WindowedRpList ingests events in
// timestamp order and keeps, per item, the ts-list column, support, Erec
// and the interesting intervals exact for the live window — enough to
// (a) answer "which items could currently be recurring" without a scan,
// and (b) feed the sliding-window miner (windowed_miner.h). Never calling
// ExpireBefore makes the window unbounded, i.e. an append-only stream.

#ifndef RPM_CORE_WINDOWED_RP_LIST_H_
#define RPM_CORE_WINDOWED_RP_LIST_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "rpm/common/status.h"
#include "rpm/core/pattern.h"
#include "rpm/core/ts_merge.h"
#include "rpm/timeseries/types.h"

namespace rpm {

/// Maintenance counters for WindowedRpList, cumulative over its lifetime.
/// All are schedule-invariant: a given sequence of Append / ExpireBefore /
/// Compact calls produces identical values on every machine.
struct WindowedRpListCounters {
  uint64_t timestamps_appended = 0;  ///< Events accepted by Append.
  uint64_t timestamps_retired = 0;   ///< Events expired by ExpireBefore.
  uint64_t runs_retired = 0;         ///< Periodic runs fully expired.
  uint64_t compactions = 0;          ///< Compact() calls that reclaimed.
};

/// Per-item ts-list columns over a time-sliding window. Supports tail
/// append (amortized O(1) per event; an append extends the item's newest
/// periodic run or opens a new one, exactly the single-run merge of
/// ts_merge.h specialized to one element) *and* head expiry (amortized
/// O(1) per retired event), while keeping support / Erec / interesting
/// intervals exact for the live suffix: after any call sequence the
/// aggregates equal what a batch Algorithm 1 scan over the live window
/// contents would report.
///
/// Expiry is lazy: retired timestamps stay in the column as a tombstoned
/// prefix [0, head) until Compact() reclaims the storage, so ExpireBefore
/// never shifts memory. The live region [head, size) of each column is
/// one sorted duplicate-free run, partitioned into consecutive periodic
/// runs; expiring a prefix of a periodic run leaves a valid (shorter)
/// run, which is why head advancement alone keeps every aggregate exact.
/// LiveTimestamps exposes the live region as a borrowing TsRun for the
/// windowed miner's merge-kernel assembly.
class WindowedRpList {
 public:
  /// `period` > 0, `min_ps` >= 1 (checked).
  WindowedRpList(Timestamp period, uint64_t min_ps);

  /// Appends one event. `ts` must be >= every previously appended
  /// timestamp and >= the current expiry cutoff (the window contract).
  /// Re-appending an item at its newest stored timestamp is a no-op, so
  /// duplicates within a transaction count once — matching batch
  /// TdbBuilder deduplication. InvalidArgument on violations or the
  /// kInvalidItem sentinel; nothing is mutated on error.
  Status Append(ItemId item, Timestamp ts);

  /// Retires every stored event with ts < cutoff across all items.
  /// Cutoffs regress-proof: a cutoff at or below the current one is a
  /// no-op. O(ItemUniverseSize + retired events).
  void ExpireBefore(Timestamp cutoff);

  /// Same, touching only `items`. The caller asserts no *other* item has
  /// a live event below `cutoff` — the windowed miner passes exactly the
  /// items of the expiring transactions, making expiry O(|items| +
  /// retired events) independent of the universe size. Out-of-range ids
  /// are ignored.
  void ExpireBefore(Timestamp cutoff, const std::vector<ItemId>& items);

  /// Items ever observed (upper bound on ids + 1); includes fully
  /// expired items.
  size_t ItemUniverseSize() const { return states_.size(); }

  /// Live-window support of `item` (0 if unseen or fully expired).
  uint64_t SupportOf(ItemId item) const;

  /// Live-window Erec: sum over the live periodic runs of
  /// floor(ps / min_ps) — what Algorithm 1 reports for the live suffix.
  uint64_t ErecOf(ItemId item) const;

  /// Number of live interesting runs (ps >= min_ps).
  uint64_t RecurrenceOf(ItemId item) const;

  /// Live interesting intervals in time order.
  std::vector<PeriodicInterval> InterestingIntervalsOf(ItemId item) const;

  /// Items whose live Erec reaches `min_rec` (ascending id order).
  std::vector<ItemId> CandidateItems(uint64_t min_rec) const;

  /// The live ts-list of `item` as one sorted run borrowing the column's
  /// storage ({nullptr, 0} when empty). Valid until the next mutating
  /// call (Append / ExpireBefore may reallocate or shift, Compact does).
  TsRun LiveTimestamps(ItemId item) const;

  /// live / stored timestamps across all columns (1.0 when nothing is
  /// stored) — the compaction trigger metric.
  double LiveFraction() const;

  /// Erases all tombstoned prefixes, shifting live suffixes to the column
  /// start. Aggregates are unchanged; LiveTimestamps runs are invalidated.
  /// Counted in counters().compactions only when storage was reclaimed.
  void Compact();

  Timestamp period() const { return period_; }
  uint64_t min_ps() const { return min_ps_; }
  /// Current expiry cutoff (inclusive window start); Timestamp minimum
  /// until the first ExpireBefore.
  Timestamp cutoff() const { return cutoff_; }
  Timestamp last_timestamp() const { return last_ts_; }
  size_t live_timestamp_count() const { return live_ts_; }
  size_t stored_timestamp_count() const { return stored_ts_; }
  const WindowedRpListCounters& counters() const { return counters_; }

 private:
  /// One maximal periodic run of the live region: column indices
  /// [first, first + ps), consecutive gaps all <= period.
  struct Run {
    size_t first = 0;
    uint64_t ps = 0;
  };
  struct ItemColumn {
    TimestampList col;         // Sorted unique; prefix [0, head) is dead.
    size_t head = 0;           // First live column index.
    std::deque<Run> runs;      // Live runs, time order; partition the
                               // live region into consecutive ranges.
    uint64_t erec = 0;         // Sum over runs of ps / min_ps_.
    uint64_t interesting = 0;  // Runs with ps >= min_ps_.
  };

  void ExpireColumn(ItemColumn& c, Timestamp cutoff);

  Timestamp period_;
  uint64_t min_ps_;
  Timestamp last_ts_;
  Timestamp cutoff_;
  bool any_event_ = false;
  size_t live_ts_ = 0;
  size_t stored_ts_ = 0;
  std::vector<ItemColumn> states_;
  WindowedRpListCounters counters_;
};

}  // namespace rpm

#endif  // RPM_CORE_WINDOWED_RP_LIST_H_
