// Copyright 2026 the pdblb authors. MIT license.
//
// Streaming sample statistics used for simulation outputs (response
// times and other per-event samples).

#ifndef PDBLB_SIMKERN_STATS_H_
#define PDBLB_SIMKERN_STATS_H_

#include <cstdint>
#include <limits>

namespace pdblb::sim {

/// Streaming mean/variance/min/max over samples (Welford's algorithm).
class SampleStat {
 public:
  void Add(double x);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_STATS_H_
