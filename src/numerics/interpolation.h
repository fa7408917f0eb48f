#ifndef MFGCP_NUMERICS_INTERPOLATION_H_
#define MFGCP_NUMERICS_INTERPOLATION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/grid.h"

// Interpolation of grid fields. The tabulated equilibrium policy x*(t, q)
// produced by the best-response learner is queried at arbitrary cache
// states by the agent-based simulator through these routines.

namespace mfg::numerics {

// A query point resolved against a grid: the left node of the cell that
// holds it and its position t ∈ [0, 1] inside that cell. Depends only on
// the grid and the point, so callers that interpolate many fields at one
// fixed point resolve it once.
struct CellPoint {
  std::size_t cell = 0;
  double t = 0.0;
};

// Resolves x, clamped into the grid span (constant extrapolation).
CellPoint LocateCell(const Grid1D& grid, double x);

// The linear interpolant between the samples f0, f1 of one cell.
inline double Lerp(double f0, double f1, double t) {
  return f0 + (f1 - f0) * t;
}

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
