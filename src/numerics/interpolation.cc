#include "numerics/interpolation.h"

#include <algorithm>

namespace mfg::numerics {

CellPoint LocateCell(const Grid1D& grid, double x) {
  const double clamped = std::clamp(x, grid.lo(), grid.hi());
  const std::size_t i = grid.CellIndex(clamped);
  const double t = (clamped - grid.x(i)) / grid.dx();
  return CellPoint{i, std::clamp(t, 0.0, 1.0)};
}

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
  const CellPoint p = LocateCell(grid, x);
  return Lerp(f[p.cell], f[p.cell + 1], p.t);
}

}  // namespace mfg::numerics
