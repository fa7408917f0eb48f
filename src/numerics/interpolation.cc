#include "numerics/interpolation.h"

#include <algorithm>

namespace mfg::numerics {

common::StatusOr<double> LinearInterpolate(const Grid1D& grid,
                                           const std::vector<double>& f,
                                           double x) {
  return LinearInterpolate(grid, std::span<const double>(f), x);
}

common::StatusOr<double> LinearInterpolate(const Grid1D& grid,
                                           std::span<const double> f,
                                           double x) {
  if (f.size() != grid.size()) {
    return common::Status::InvalidArgument("field/grid size mismatch");
  }
  const double clamped = std::clamp(x, grid.lo(), grid.hi());
  const std::size_t i = grid.CellIndex(clamped);
  const double x0 = grid.x(i);
  const double t = (clamped - x0) / grid.dx();
  return f[i] + (f[i + 1] - f[i]) * std::clamp(t, 0.0, 1.0);
}

}  // namespace mfg::numerics
