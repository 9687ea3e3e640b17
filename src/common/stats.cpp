#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace mrca {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

RunningStats RunningStats::from_state(std::size_t count, double mean,
                                      double m2, double min,
                                      double max) noexcept {
  RunningStats stats;
  if (count == 0) return stats;
  stats.count_ = count;
  stats.mean_ = mean;
  stats.m2_ = m2;
  stats.min_ = min;
  stats.max_ = max;
  return stats;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void TimeWeightedMean::update(double now, double value) noexcept {
  const double dt = now - last_time_;
  if (dt > 0.0) {
    weighted_sum_ += value_ * dt;
    total_time_ += dt;
    last_time_ = now;
  }
  value_ = value;
}

double TimeWeightedMean::mean(double now) const noexcept {
  double weighted = weighted_sum_;
  double total = total_time_;
  const double dt = now - last_time_;
  if (dt > 0.0) {
    weighted += value_ * dt;
    total += dt;
  }
  if (total <= 0.0) return value_;
  return weighted / total;
}

double jain_fairness(std::span<const double> values) noexcept {
  if (values.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace mrca
