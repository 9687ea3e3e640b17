// Memoized rate lookups: R(k) and R(k)/k precomputed for every load a user
// can perceive (k = 0..sum of budgets in the single collision domain,
// k = 0..k_max*(max_degree+1) under an interference graph — see GameModel),
// so the dynamics' inner loops pay one array read instead of a virtual call
// (plus a pow() for the power-law family).
//
// Values are copied verbatim from the RateFunction, so table-backed results
// are bit-identical to direct evaluation. Loads beyond the precomputed range
// (under a topology: the global column sums, which no user perceives) fall
// back to the live function, with the same bits.
#pragma once

#include <vector>

#include "core/rate_function.h"
#include "core/types.h"

namespace mrca {

class RateTable {
 public:
  /// Tabulates `fn` over loads 0..max_load. The function must outlive the
  /// table (it backs the out-of-range fallback).
  RateTable(const RateFunction& fn, RadioCount max_load);

  /// R(k); bit-identical to fn.rate(k).
  double rate(RadioCount k) const {
    if (k <= 0) return 0.0;
    if (k <= max_load_) return rates_[static_cast<std::size_t>(k)];
    return fn_->rate(k);
  }

  /// Per-radio share R(k)/k under equal sharing; 0 when k <= 0.
  double per_radio(RadioCount k) const {
    if (k <= 0) return 0.0;
    if (k <= max_load_) return per_radio_[static_cast<std::size_t>(k)];
    return fn_->rate(k) / static_cast<double>(k);
  }

  RadioCount max_load() const noexcept { return max_load_; }
  const RateFunction& function() const noexcept { return *fn_; }

 private:
  const RateFunction* fn_;
  RadioCount max_load_;
  std::vector<double> rates_;      // rates_[k] = R(k)
  std::vector<double> per_radio_;  // per_radio_[k] = R(k)/k
};

}  // namespace mrca
