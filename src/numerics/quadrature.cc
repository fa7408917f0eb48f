#include "numerics/quadrature.h"

#include <algorithm>

namespace mfg::numerics {
namespace {

common::Status ValidateField(const Grid1D& grid, std::span<const double> f) {
  if (f.size() != grid.size()) {
    return common::Status::InvalidArgument("field/grid size mismatch");
  }
  return common::Status::Ok();
}

}  // namespace

common::StatusOr<double> Trapezoid(const Grid1D& grid,
                                   std::span<const double> f) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, f));
  const std::size_t n = grid.size();
  double acc = 0.5 * (f[0] + f[n - 1]);
  for (std::size_t i = 1; i + 1 < n; ++i) acc += f[i];
  return acc * grid.dx();
}

common::StatusOr<double> Trapezoid(const Grid1D& grid,
                                   const std::vector<double>& f) {
  return Trapezoid(grid, std::span<const double>(f));
}

common::StatusOr<double> TrapezoidProduct(const Grid1D& grid,
                                          std::span<const double> f,
                                          std::span<const double> g) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, f));
  MFG_RETURN_IF_ERROR(ValidateField(grid, g));
  // Fused pointwise product: every f[i]*g[i] is rounded to a double before
  // entering the trapezoid sum, exactly as the materialized product vector
  // was — bit-identical without the temporary.
  const std::size_t n = grid.size();
  const double p0 = f[0] * g[0];
  const double pn = f[n - 1] * g[n - 1];
  double acc = 0.5 * (p0 + pn);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double prod = f[i] * g[i];
    acc += prod;
  }
  return acc * grid.dx();
}

common::StatusOr<double> TrapezoidProduct(const Grid1D& grid,
                                          const std::vector<double>& f,
                                          const std::vector<double>& g) {
  return TrapezoidProduct(grid, std::span<const double>(f),
                          std::span<const double>(g));
}

common::StatusOr<double> TrapezoidOnInterval(const Grid1D& grid,
                                             std::span<const double> f,
                                             double a, double b) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, f));
  return TrapezoidOnInterval(ResolveInterval(grid, a, b), f);
}

IntervalBounds ResolveInterval(const Grid1D& grid, double a, double b) {
  IntervalBounds bounds;
  bounds.dx = grid.dx();
  a = std::max(a, grid.lo());
  b = std::min(b, grid.hi());
  if (a >= b) return bounds;  // kEmpty.

  // Node values strictly inside (a, b) contribute full trapezoid cells;
  // the partial cells at each end use interpolated endpoint values.
  bounds.a = LocateCell(grid, a);
  bounds.b = LocateCell(grid, b);
  bounds.width = b - a;

  // First node strictly greater than a, last node strictly less than b.
  std::size_t first = grid.CellIndex(a) + 1;
  while (first < grid.size() && grid.x(first) <= a) ++first;
  std::size_t last = grid.CellIndex(b);
  while (last > 0 && grid.x(last) >= b) --last;
  if (first > last || first >= grid.size() || grid.x(first) >= b) {
    bounds.shape = IntervalBounds::Shape::kOneCell;
    return bounds;
  }
  bounds.shape = IntervalBounds::Shape::kCells;
  bounds.first = first;
  bounds.last = last;
  bounds.left_width = grid.x(first) - a;
  bounds.right_width = b - grid.x(last);
  return bounds;
}

double TrapezoidOnInterval(const IntervalBounds& bounds,
                           std::span<const double> f) {
  const auto at = [f](std::size_t i) { return f[i]; };
  double acc = 0.0;
  if (bounds.shape == IntervalBounds::Shape::kCells) {
    acc = IntervalHead(bounds, at);
    for (std::size_t i = bounds.first; i < bounds.last; ++i) {
      acc += IntervalCell(f[i], f[i + 1], bounds.dx);
    }
  }
  return IntervalTail(bounds, acc, at);
}

common::StatusOr<double> TrapezoidOnInterval(const Grid1D& grid,
                                             const std::vector<double>& f,
                                             double a, double b) {
  return TrapezoidOnInterval(grid, std::span<const double>(f), a, b);
}

}  // namespace mfg::numerics
