#ifndef MFGCP_NUMERICS_INTERPOLATION_H_
#define MFGCP_NUMERICS_INTERPOLATION_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/grid.h"

// Interpolation of grid fields. The tabulated equilibrium policy x*(t, q)
// produced by the best-response learner is queried at arbitrary cache
// states by the agent-based simulator through these routines.

namespace mfg::numerics {

// Piecewise-linear interpolation of f at x; clamps x into the grid span
// (constant extrapolation), which is the right behaviour for policies and
// densities defined on a truncated physical domain.
common::StatusOr<double> LinearInterpolate(const Grid1D& grid,
                                           std::span<const double> f,
                                           double x);
common::StatusOr<double> LinearInterpolate(const Grid1D& grid,
                                           const std::vector<double>& f,
                                           double x);

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_INTERPOLATION_H_
