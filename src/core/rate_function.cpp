#include "core/rate_function.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mrca {

void RateFunction::validate_non_increasing(int max_k) const {
  if (rate(0) != 0.0) {
    throw std::domain_error(name() + ": R(0) must be 0");
  }
  double previous = rate(1);
  if (previous < 0.0) {
    throw std::domain_error(name() + ": R(1) must be non-negative");
  }
  for (int k = 2; k <= max_k; ++k) {
    const double current = rate(k);
    if (current < 0.0) {
      throw std::domain_error(name() + ": R(" + std::to_string(k) +
                              ") is negative");
    }
    if (current > previous * (1.0 + 1e-12) + 1e-12) {
      throw std::domain_error(name() + ": R increases at k=" +
                              std::to_string(k));
    }
    previous = current;
  }
}

ConstantRate::ConstantRate(double nominal_rate) : nominal_(nominal_rate) {
  if (nominal_rate <= 0.0) {
    throw std::invalid_argument("ConstantRate: rate must be positive");
  }
}

double ConstantRate::rate(int k) const { return k > 0 ? nominal_ : 0.0; }

std::string ConstantRate::name() const {
  std::ostringstream out;
  out << "TDMA-constant(" << nominal_ << ")";
  return out.str();
}

GeometricDecayRate::GeometricDecayRate(double nominal_rate, double decay)
    : nominal_(nominal_rate), decay_(decay) {
  if (nominal_rate <= 0.0) {
    throw std::invalid_argument("GeometricDecayRate: rate must be positive");
  }
  if (!(decay > 0.0 && decay <= 1.0)) {
    throw std::invalid_argument("GeometricDecayRate: decay must be in (0,1]");
  }
}

double GeometricDecayRate::rate(int k) const {
  if (k <= 0) return 0.0;
  return nominal_ * std::pow(decay_, k - 1);
}

std::string GeometricDecayRate::name() const {
  std::ostringstream out;
  out << "geometric(" << nominal_ << "," << decay_ << ")";
  return out.str();
}

PowerLawRate::PowerLawRate(double nominal_rate, double alpha)
    : nominal_(nominal_rate), alpha_(alpha) {
  if (nominal_rate <= 0.0) {
    throw std::invalid_argument("PowerLawRate: rate must be positive");
  }
  if (alpha < 0.0) {
    throw std::invalid_argument("PowerLawRate: alpha must be >= 0");
  }
}

double PowerLawRate::rate(int k) const {
  if (k <= 0) return 0.0;
  return nominal_ / std::pow(static_cast<double>(k), alpha_);
}

std::string PowerLawRate::name() const {
  std::ostringstream out;
  out << "power-law(" << nominal_ << ",alpha=" << alpha_ << ")";
  return out.str();
}

LinearDecayRate::LinearDecayRate(double nominal_rate, double slope)
    : nominal_(nominal_rate), slope_(slope) {
  if (nominal_rate <= 0.0) {
    throw std::invalid_argument("LinearDecayRate: rate must be positive");
  }
  if (slope < 0.0) {
    throw std::invalid_argument("LinearDecayRate: slope must be >= 0");
  }
}

double LinearDecayRate::rate(int k) const {
  if (k <= 0) return 0.0;
  return std::max(0.0, nominal_ - slope_ * static_cast<double>(k - 1));
}

std::string LinearDecayRate::name() const {
  std::ostringstream out;
  out << "linear(" << nominal_ << ",slope=" << slope_ << ")";
  return out.str();
}

TabulatedRate::TabulatedRate(std::vector<double> values, std::string label,
                             double tolerance, bool strict)
    : values_(std::move(values)), label_(std::move(label)), strict_(strict) {
  if (values_.empty()) {
    throw std::invalid_argument("TabulatedRate: table must be non-empty");
  }
  double running_min = values_.front();
  if (running_min < 0.0) {
    throw std::invalid_argument("TabulatedRate: negative rate in table");
  }
  for (std::size_t j = 1; j < values_.size(); ++j) {
    if (values_[j] < 0.0) {
      throw std::invalid_argument("TabulatedRate: negative rate in table");
    }
    if (values_[j] > running_min + tolerance) {
      throw std::invalid_argument(
          "TabulatedRate: table increases beyond tolerance at k=" +
          std::to_string(j + 1));
    }
    // Monotonize so that the RateFunction contract holds exactly even when
    // the input carries simulation noise within `tolerance`.
    running_min = std::min(running_min, values_[j]);
    values_[j] = running_min;
  }
}

double TabulatedRate::rate(int k) const {
  if (k <= 0) return 0.0;
  const auto idx = static_cast<std::size_t>(k - 1);
  if (idx >= values_.size()) {
    if (strict_) {
      throw std::out_of_range("TabulatedRate(" + label_ + "): load " +
                              std::to_string(k) +
                              " exceeds the tabulated maximum " +
                              std::to_string(values_.size()));
    }
    return values_.back();
  }
  return values_[idx];
}

std::string TabulatedRate::name() const { return label_; }

ScaledRate::ScaledRate(std::shared_ptr<const RateFunction> base, double scale)
    : base_(std::move(base)), scale_(scale) {
  if (!base_) {
    throw std::invalid_argument("ScaledRate: base rate must not be null");
  }
  if (!std::isfinite(scale_) || scale_ <= 0.0) {
    throw std::invalid_argument("ScaledRate: scale must be finite and > 0");
  }
}

double ScaledRate::rate(int k) const { return scale_ * base_->rate(k); }

std::string ScaledRate::name() const {
  std::ostringstream out;
  out << scale_ << "x " << base_->name();
  return out.str();
}

std::shared_ptr<const RateFunction> make_tdma_rate(double nominal_rate) {
  return std::make_shared<ConstantRate>(nominal_rate);
}

}  // namespace mrca
