// Fixed parameters of the four workloads, shared by input generation and
// measurement so the two can never disagree.
#ifndef RPMBENCH_INPUTS_H_
#define RPMBENCH_INPUTS_H_

#include <cstdint>
#include <string>

namespace rpmbench {

/// One `rpminer mine` job: file -> JSON patterns.
struct MineSpec {
  const char* workload;
  const char* file;
  int64_t per;
  double min_ps_pct;
  uint64_t min_rec;
  uint64_t threads;
};

/// T10I4D100K at scale 1, the Table-7 cell, four mining threads.
inline constexpr MineSpec kSparse{"mine-sparse", "t10.tspmf", 1440, 0.1, 1,
                                  4};
/// The dense burst stream, one mining thread.
inline constexpr MineSpec kDense{"mine-dense", "dense.tspmf", 360, 5.0, 2,
                                 1};

/// serve-mixed hosts Shop-14 and T10I4D100K at this scale; each dataset
/// has a second variant that `swap` alternates with.
inline constexpr double kServeScale = 0.25;
inline std::string ServeFile(const std::string& dataset, int variant) {
  return dataset + (variant == 0 ? "" : "_b") + ".tspmf";
}

/// window-slide: the first days of Shop-14, a one-day window sliding by
/// one-hour deltas.
inline constexpr const char* kStreamFile = "stream.tspmf";
inline constexpr int64_t kWindowFirstDay = 14;
inline constexpr int64_t kWindowDays = 8;
inline constexpr int64_t kWindowPer = 60;
inline constexpr uint64_t kWindowMinPs = 20;
inline constexpr uint64_t kWindowMinRec = 1;
inline constexpr int64_t kWindowMinutes = 1440;
inline constexpr int64_t kDeltaMinutes = 60;

}  // namespace rpmbench

#endif  // RPMBENCH_INPUTS_H_
