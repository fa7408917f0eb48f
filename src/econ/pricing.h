#ifndef MFGCP_ECON_PRICING_H_
#define MFGCP_ECON_PRICING_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

// Supply–demand trading price of content k (§III-A):
//
//   Eq. (5), finite M:
//     p_{i,k}(t) = p̂                                      if M = 1
//     p_{i,k}(t) = p̂ − η₁ Σ_{i'≠i} s_{i',k}(t) / (M−1)    if M ≥ 2
//
//   Eq. (17), mean-field limit:
//     p_k(t) ≈ p̂ − η₁ ∫∫ λ(S_k) s_k(S_k) dh dq
//
// where s_{i',k} = Q_k x̄_{i',k} is competitor i's *supply* of content k.
// We interpret the supply as the cached stock offered for sale,
// s = Q_k − q (the "caching proportion" x̄ = (Q_k − q)/Q_k): the market
// saturates as the population caches up and the price falls — the paper's
// "redundant content caching may result in market saturation and decrease
// the profits" narrative, and the mechanism behind Fig. 11/12's income
// trends. Prices are floored at zero (a rational EDP never pays
// requesters to take content; the floor never binds at equilibrium with
// the calibrated parameters — tested).

namespace mfg::econ {

struct PricingParams {
  // p̂, currency per MB of content data (the paper's 5e-7 per byte,
  // rescaled with the rest of the unit system; see DESIGN.md).
  double max_price = 6.5;
  // Supply-to-money conversion η₁. The paper sweeps 0.1–0.4 (×10⁻⁶ in its
  // per-byte units); in our per-MB units the same sweep is 0.01–0.04 so
  // that η₁·Q_k stays below p̂ and the price remains positive.
  double eta1 = 0.02;
};

class PricingModel {
 public:
  // The model of the default PricingParams (valid), so tables that hold a
  // model can be default-constructed before they are filled.
  PricingModel() = default;

  // Fails on non-positive p̂ or negative η₁.
  static common::StatusOr<PricingModel> Create(const PricingParams& params);

  // Eq. (5): price quoted by EDP `self` given every EDP's remaining space
  // q_{i,k} for this content (supply of EDP i' is Q_k − q_{i'}).
  common::StatusOr<double> FiniteMarketPrice(
      const std::vector<double>& remaining_spaces, std::size_t self,
      double content_size) const;

  // Eq. (17): mean-field price from the population-average remaining
  // space q̄ (mean supply is Q_k − q̄).
  double MeanFieldPrice(double mean_remaining, double content_size) const;

  const PricingParams& params() const { return params_; }

 private:
  explicit PricingModel(const PricingParams& params) : params_(params) {}

  PricingParams params_;
};

// Uniform unit price p̄_k each EDP pays a peer for shared content (§II-B's
// usage-based sharing scheme). Kept as a plain value; bundled here so the
// sharing economics live in one header.
struct SharingPrice {
  double per_mb = 1.0;  // p̄_k, currency per MB transferred.
};

}  // namespace mfg::econ

#endif  // MFGCP_ECON_PRICING_H_
