#include "econ/smooth_heaviside.h"

namespace mfg::econ {

common::StatusOr<SmoothHeaviside> SmoothHeaviside::Create(double sharpness) {
  if (sharpness <= 0.0) {
    return common::Status::InvalidArgument(
        "smooth heaviside sharpness must be positive");
  }
  return SmoothHeaviside(sharpness);
}

double SmoothHeaviside::Derivative(double x) const {
  const double fx = (*this)(x);
  return 2.0 * sharpness_ * fx * (1.0 - fx);
}

}  // namespace mfg::econ
