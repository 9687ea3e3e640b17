// Rate functions R(k_c): the total available bitrate on a channel carrying
// k_c radios (paper §2, Figure 3).
//
// The paper assumes R is non-increasing in k_c with R(0) = 0, and
// distinguishes three families:
//   - reservation-based TDMA: R constant in k_c,
//   - CSMA/CA with optimal backoff windows: R approximately constant
//     (Bianchi 2000, [3] in the paper),
//   - practical CSMA/CA (802.11 DCF): R strictly decreasing for k_c > 1 due
//     to collisions.
//
// This header provides the abstract interface plus closed-form families;
// mac/bianchi.h builds the practical/optimal CSMA curves from the DCF model
// and adapts them to TabulatedRate.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace mrca {

/// Total channel rate as a function of the number of radios on the channel.
///
/// Contract: rate(0) == 0, rate(k) >= 0, and rate is non-increasing for
/// k >= 1. `validate_non_increasing` checks the contract over a prefix.
class RateFunction {
 public:
  virtual ~RateFunction() = default;

  /// Total rate (e.g. Mbit/s) available on a channel with k radios; k >= 0.
  virtual double rate(int k) const = 0;

  /// Human-readable name used in tables and reports.
  virtual std::string name() const = 0;

  /// Per-radio rate R(k)/k under equal sharing; 0 when k == 0.
  double per_radio(int k) const {
    return k > 0 ? rate(k) / static_cast<double>(k) : 0.0;
  }

  /// Throws std::domain_error if the contract (R(0)=0, non-negative,
  /// non-increasing) is violated anywhere in k = 0..max_k.
  void validate_non_increasing(int max_k) const;
};

/// Constant rate: reservation-based TDMA, or CSMA/CA with per-k optimal
/// backoff in the idealized limit. R(k) = nominal for every k >= 1.
class ConstantRate final : public RateFunction {
 public:
  explicit ConstantRate(double nominal_rate);
  double rate(int k) const override;
  std::string name() const override;

 private:
  double nominal_;
};

/// R(k) = nominal * decay^(k-1) for k >= 1, decay in (0, 1].
/// A smooth stand-in for collision-induced loss.
class GeometricDecayRate final : public RateFunction {
 public:
  GeometricDecayRate(double nominal_rate, double decay);
  double rate(int k) const override;
  std::string name() const override;

 private:
  double nominal_;
  double decay_;
};

/// R(k) = nominal / k^alpha for k >= 1 (alpha >= 0).
/// alpha = 0 reduces to ConstantRate; alpha = 1 makes the per-radio rate
/// fall as 1/k^2 — a harsh congestion model useful in stress tests.
class PowerLawRate final : public RateFunction {
 public:
  PowerLawRate(double nominal_rate, double alpha);
  double rate(int k) const override;
  std::string name() const override;

 private:
  double nominal_;
  double alpha_;
};

/// R(k) = max(0, nominal - slope*(k-1)) for k >= 1.
class LinearDecayRate final : public RateFunction {
 public:
  LinearDecayRate(double nominal_rate, double slope);
  double rate(int k) const override;
  std::string name() const override;

 private:
  double nominal_;
  double slope_;
};

/// Rate given by an explicit table for k = 1..table.size(). Beyond the
/// table the behavior depends on `strict`: by default the last entry is
/// extended (the curve flattens); a strict table instead throws
/// std::out_of_range, turning a silently-wrong rate into a loud failure
/// when a table was sized too small for the loads a game can reach. Used
/// to plug the Bianchi model and DES-measured curves into the game.
class TabulatedRate final : public RateFunction {
 public:
  /// values[j] is R(j+1). Must be non-empty, non-negative, non-increasing
  /// (within `tolerance`, to absorb simulation noise); the stored table is
  /// monotonized (running minimum) so the RateFunction contract holds
  /// exactly afterwards.
  TabulatedRate(std::vector<double> values, std::string label,
                double tolerance = 0.0, bool strict = false);

  double rate(int k) const override;
  std::string name() const override;
  int table_size() const noexcept { return static_cast<int>(values_.size()); }
  bool strict() const noexcept { return strict_; }

 private:
  std::vector<double> values_;
  std::string label_;
  bool strict_ = false;
};

/// A rate function scaled by a positive constant: R'(k) = scale * R(k).
/// The building block for heterogeneous-band scenarios (e.g. one wide
/// channel at 2x the base rate next to narrow ones at 0.5x).
class ScaledRate final : public RateFunction {
 public:
  /// `scale` must be finite and > 0; the base function must be non-null.
  ScaledRate(std::shared_ptr<const RateFunction> base, double scale);

  double rate(int k) const override;
  std::string name() const override;

 private:
  std::shared_ptr<const RateFunction> base_;
  double scale_;
};

/// Convenience factory for the paper's TDMA rate (a ConstantRate).
std::shared_ptr<const RateFunction> make_tdma_rate(double nominal_rate);

}  // namespace mrca
