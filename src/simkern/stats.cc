// Copyright 2026 the pdblb authors. MIT license.

#include "simkern/stats.h"

#include <algorithm>
#include <cmath>

namespace pdblb::sim {

void SampleStat::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void SampleStat::Reset() { *this = SampleStat(); }

double SampleStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SampleStat::stddev() const { return std::sqrt(variance()); }

}  // namespace pdblb::sim
