// Overflow-safe gap arithmetic on ordered timestamps.
//
// Every periodicity test in the system is some flavour of
// "cur - prev <= period" over a sorted timestamp list. The naive signed
// subtraction is undefined behaviour once prev and cur straddle more than
// half the int64 range (e.g. prev near INT64_MIN, cur near INT64_MAX —
// legal inputs: timestamps are unit-agnostic int64s and readers accept the
// full range). The helpers below compute the true non-negative gap in
// uint64, which is exact for any ordered int64 pair: the mathematical
// difference lies in [0, 2^64) and two's-complement unsigned subtraction
// yields it without overflow.
//
// Shared by the batch measures (measures.cc), the RP-list scan
// (rp_list.cc) and the incremental RP-list (windowed_rp_list.cc) so all
// three agree bit-for-bit on boundary cases — a precondition of the
// differential harness in src/rpm/verify/.

#ifndef RPM_CORE_TIME_GAP_H_
#define RPM_CORE_TIME_GAP_H_

#include <cstdint>
#include <limits>

#include "rpm/timeseries/types.h"

namespace rpm {

/// The exact gap cur - prev of two ordered timestamps (prev <= cur).
inline uint64_t TimestampGap(Timestamp prev, Timestamp cur) {
  return static_cast<uint64_t>(cur) - static_cast<uint64_t>(prev);
}

/// cur - prev <= period, without signed overflow. Preconditions:
/// prev <= cur, period > 0.
inline bool GapWithinPeriod(Timestamp prev, Timestamp cur,
                            Timestamp period) {
  return TimestampGap(prev, cur) <= static_cast<uint64_t>(period);
}

/// The gap clamped into Timestamp's range, for APIs that report
/// inter-arrival times as Timestamp values. A gap wider than int64 can
/// only arise from timestamps straddling most of the int64 range; such a
/// gap exceeds every valid period, so saturation never changes a
/// periodicity decision.
inline Timestamp SaturatingGap(Timestamp prev, Timestamp cur) {
  const uint64_t gap = TimestampGap(prev, cur);
  const uint64_t cap =
      static_cast<uint64_t>(std::numeric_limits<Timestamp>::max());
  return gap > cap ? std::numeric_limits<Timestamp>::max()
                   : static_cast<Timestamp>(gap);
}

/// The inclusive start of the sliding window [now - window, now],
/// saturating at the Timestamp minimum. Precondition: window >= 0. The
/// naive `now - window` is undefined behaviour when `now` sits near
/// INT64_MIN; saturation gives the only sensible reading — a window wider
/// than the remaining timestamp range retires nothing, i.e. behaves as
/// unbounded. Shared by WindowedRpList, WindowedMiner and the engine's
/// windowed executor so every layer agrees on the cutoff bit-for-bit.
inline Timestamp SaturatingWindowStart(Timestamp now, Timestamp window) {
  if (TimestampGap(std::numeric_limits<Timestamp>::min(), now) <
      static_cast<uint64_t>(window)) {
    return std::numeric_limits<Timestamp>::min();
  }
  return static_cast<Timestamp>(static_cast<uint64_t>(now) -
                                static_cast<uint64_t>(window));
}

}  // namespace rpm

#endif  // RPM_CORE_TIME_GAP_H_
