#ifndef MFGCP_ECON_SMOOTH_HEAVISIDE_H_
#define MFGCP_ECON_SMOOTH_HEAVISIDE_H_

#include <cmath>

#include "common/status.h"

// The paper's smooth approximation of the Heaviside step function,
//   f(x) = 1 / (1 + e^{-2 l x}),  l > 0,
// used to define the occurrence probabilities of the three service cases
// (§III-A). Also provides its derivative f'(x), needed by the Lipschitz
// analysis in Lemma 1 and by tests of the utility's smoothness.

namespace mfg::econ {

// f(x) with sharpness l, in the numerically stable form (exp never
// overflows for large |x|). SmoothHeaviside::operator() and the batched
// HJB lane tables both evaluate it here, so they produce the same bits.
inline double Logistic(double sharpness, double x) {
  const double z = 2.0 * sharpness * x;
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

class SmoothHeaviside {
 public:
  // Fails on sharpness l <= 0.
  static common::StatusOr<SmoothHeaviside> Create(double sharpness);

  // f(x) ∈ (0, 1); f(0) = 1/2; increasing in x.
  double operator()(double x) const { return Logistic(sharpness_, x); }

  // f'(x) = 2 l e^{-2 l x} (1 + e^{-2 l x})^{-2}; maximal at x = 0.
  double Derivative(double x) const;

  double sharpness() const { return sharpness_; }

 private:
  explicit SmoothHeaviside(double sharpness) : sharpness_(sharpness) {}

  double sharpness_;
};

}  // namespace mfg::econ

#endif  // MFGCP_ECON_SMOOTH_HEAVISIDE_H_
