#include "rpm/core/windowed_rp_list.h"

#include <algorithm>
#include <limits>

#include "rpm/common/logging.h"
#include "rpm/core/time_gap.h"

namespace rpm {

WindowedRpList::WindowedRpList(Timestamp period, uint64_t min_ps)
    : period_(period),
      min_ps_(min_ps),
      last_ts_(0),
      cutoff_(std::numeric_limits<Timestamp>::min()) {
  RPM_CHECK(period > 0);
  RPM_CHECK(min_ps >= 1);
}

Status WindowedRpList::Append(ItemId item, Timestamp ts) {
  if (item == kInvalidItem) {
    return Status::InvalidArgument("item id " + std::to_string(item) +
                                   " is the reserved invalid-item sentinel");
  }
  if (any_event_ && ts < last_ts_) {
    return Status::InvalidArgument(
        "out-of-order event: ts " + std::to_string(ts) + " after " +
        std::to_string(last_ts_));
  }
  if (ts < cutoff_) {
    return Status::InvalidArgument(
        "event at ts " + std::to_string(ts) +
        " precedes the window cutoff " + std::to_string(cutoff_));
  }
  any_event_ = true;
  last_ts_ = ts;
  if (item >= states_.size()) states_.resize(static_cast<size_t>(item) + 1);

  ItemColumn& c = states_[item];
  // Duplicate within a transaction. Equality implies the stored newest is
  // live: a dead newest would satisfy col.back() < cutoff_ <= ts.
  if (!c.col.empty() && c.col.back() == ts) return Status::OK();

  ++counters_.timestamps_appended;
  ++live_ts_;
  ++stored_ts_;
  const bool extend =
      c.head < c.col.size() && GapWithinPeriod(c.col.back(), ts, period_);
  const size_t idx = c.col.size();
  c.col.push_back(ts);
  if (extend) {
    Run& r = c.runs.back();
    c.erec += (r.ps + 1) / min_ps_ - r.ps / min_ps_;
    if (r.ps + 1 >= min_ps_ && r.ps < min_ps_) ++c.interesting;
    ++r.ps;
  } else {
    c.runs.push_back({idx, 1});
    if (min_ps_ == 1) {
      ++c.erec;
      ++c.interesting;
    }
  }
  return Status::OK();
}

void WindowedRpList::ExpireColumn(ItemColumn& c, Timestamp cutoff) {
  while (c.head < c.col.size() && c.col[c.head] < cutoff) {
    Run& r = c.runs.front();
    // Runs partition the live region, so the front run starts at head.
    const auto begin = c.col.begin() + static_cast<ptrdiff_t>(r.first);
    const auto end = begin + static_cast<ptrdiff_t>(r.ps);
    const size_t n =
        static_cast<size_t>(std::lower_bound(begin, end, cutoff) - begin);
    counters_.timestamps_retired += n;
    live_ts_ -= n;
    c.head += n;
    if (n == r.ps) {
      c.erec -= r.ps / min_ps_;
      if (r.ps >= min_ps_) --c.interesting;
      c.runs.pop_front();
      ++counters_.runs_retired;
    } else {
      // Removing a prefix of a periodic run leaves a valid shorter run:
      // the surviving gaps are a subset of the original run's gaps.
      c.erec -= r.ps / min_ps_ - (r.ps - n) / min_ps_;
      if (r.ps >= min_ps_ && r.ps - n < min_ps_) --c.interesting;
      r.first += n;
      r.ps -= n;
    }
  }
}

void WindowedRpList::ExpireBefore(Timestamp cutoff) {
  if (cutoff <= cutoff_) return;
  cutoff_ = cutoff;
  for (ItemColumn& c : states_) ExpireColumn(c, cutoff);
}

void WindowedRpList::ExpireBefore(Timestamp cutoff,
                                  const std::vector<ItemId>& items) {
  if (cutoff <= cutoff_) return;
  cutoff_ = cutoff;
  for (ItemId item : items) {
    if (item < states_.size()) ExpireColumn(states_[item], cutoff);
  }
}

uint64_t WindowedRpList::SupportOf(ItemId item) const {
  if (item >= states_.size()) return 0;
  const ItemColumn& c = states_[item];
  return c.col.size() - c.head;
}

uint64_t WindowedRpList::ErecOf(ItemId item) const {
  return item < states_.size() ? states_[item].erec : 0;
}

uint64_t WindowedRpList::RecurrenceOf(ItemId item) const {
  return item < states_.size() ? states_[item].interesting : 0;
}

std::vector<PeriodicInterval> WindowedRpList::InterestingIntervalsOf(
    ItemId item) const {
  std::vector<PeriodicInterval> out;
  if (item >= states_.size()) return out;
  const ItemColumn& c = states_[item];
  for (const Run& r : c.runs) {
    if (r.ps >= min_ps_) {
      out.push_back({c.col[r.first],
                     c.col[r.first + static_cast<size_t>(r.ps) - 1], r.ps});
    }
  }
  return out;
}

std::vector<ItemId> WindowedRpList::CandidateItems(uint64_t min_rec) const {
  std::vector<ItemId> out;
  for (ItemId item = 0; item < states_.size(); ++item) {
    if (SupportOf(item) > 0 && states_[item].erec >= min_rec) {
      out.push_back(item);
    }
  }
  return out;
}

TsRun WindowedRpList::LiveTimestamps(ItemId item) const {
  if (item >= states_.size()) return {nullptr, 0};
  const ItemColumn& c = states_[item];
  if (c.head == c.col.size()) return {nullptr, 0};
  return {c.col.data() + c.head, c.col.size() - c.head};
}

double WindowedRpList::LiveFraction() const {
  if (stored_ts_ == 0) return 1.0;
  return static_cast<double>(live_ts_) / static_cast<double>(stored_ts_);
}

void WindowedRpList::Compact() {
  bool reclaimed = false;
  for (ItemColumn& c : states_) {
    if (c.head == 0) continue;
    c.col.erase(c.col.begin(), c.col.begin() + static_cast<ptrdiff_t>(c.head));
    for (Run& r : c.runs) r.first -= c.head;
    stored_ts_ -= c.head;
    c.head = 0;
    reclaimed = true;
  }
  if (reclaimed) ++counters_.compactions;
}

}  // namespace rpm
