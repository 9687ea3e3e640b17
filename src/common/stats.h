// Statistics primitives used by the simulator, the sweep engine's
// aggregates and the analysis code.
#pragma once

#include <cstddef>
#include <span>

namespace mrca {

/// Numerically stable running mean/variance (Welford's algorithm),
/// plus min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;
  /// Chan-style parallel merge: folds `other` into this as if both sample
  /// streams had been combined. Counts and extrema are exact; mean/variance
  /// match a single sequential pass up to floating-point reassociation
  /// (merge order changes the rounding, not the statistics).
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  /// Reconstructs a stats object from serialized state — the exact inverse
  /// of (count, mean, m2, min, max). With count == 0 the moment arguments
  /// are ignored and the result equals a default-constructed object, so a
  /// serialize → from_state → serialize round trip is byte-identical.
  static RunningStats from_state(std::size_t count, double mean, double m2,
                                 double min, double max) noexcept;

  std::size_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }
  /// Raw second central moment (Welford's M2) — the state the sweep shard
  /// writers serialize so a parsed aggregate reprints bit-identically.
  double m2() const noexcept { return m2_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time-weighted average of a piecewise-constant signal, e.g. queue length
/// or channel busy fraction in the discrete-event simulator.
class TimeWeightedMean {
 public:
  explicit TimeWeightedMean(double start_time = 0.0) noexcept
      : last_time_(start_time) {}

  /// Records that the signal changed to `value` at time `now`.
  /// The previous value is credited for [last_time, now).
  void update(double now, double value) noexcept;

  /// Mean over [start, now]; extends the last value to `now`.
  double mean(double now) const noexcept;

  double current() const noexcept { return value_; }

 private:
  double last_time_;
  double value_ = 0.0;
  double weighted_sum_ = 0.0;
  double total_time_ = 0.0;
};

/// Jain's fairness index: (sum x)^2 / (n * sum x^2). Returns 1.0 for an
/// empty or all-zero input (vacuously fair).
double jain_fairness(std::span<const double> values) noexcept;

}  // namespace mrca
