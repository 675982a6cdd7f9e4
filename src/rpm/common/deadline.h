// Monotonic wall-clock deadlines for resource-governed queries.
//
// A Deadline is a point on std::chrono::steady_clock (immune to system
// clock adjustments). The default-constructed deadline is infinite, so
// "no timeout" costs one comparison and never consults the clock.

#ifndef RPM_COMMON_DEADLINE_H_
#define RPM_COMMON_DEADLINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace rpm {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// The infinite deadline (never expires).
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now. ms <= 0 is already expired. A
  /// deadline past the clock's range saturates at its last instant
  /// instead of overflowing the nanosecond representation.
  static Deadline AfterMillis(int64_t ms) {
    Deadline d;
    d.infinite_ = false;
    using std::chrono::milliseconds;
    const Clock::time_point now = Clock::now();
    const int64_t headroom =
        std::chrono::duration_cast<milliseconds>(Clock::time_point::max() -
                                                 now)
            .count();
    d.when_ = ms >= headroom
                  ? Clock::time_point::max()
                  : now + milliseconds(std::max(ms, -headroom));
    return d;
  }

  bool infinite() const { return infinite_; }

  /// True when the deadline has passed. Infinite deadlines never expire
  /// and never read the clock.
  bool Expired() const { return !infinite_ && Clock::now() >= when_; }

  /// Milliseconds until expiry (negative when already expired).
  /// Precondition: !infinite().
  int64_t RemainingMillis() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(when_ -
                                                                 Clock::now())
        .count();
  }

 private:
  bool infinite_ = true;
  Clock::time_point when_{};
};

}  // namespace rpm

#endif  // RPM_COMMON_DEADLINE_H_
