#ifndef MFGCP_NUMERICS_QUADRATURE_H_
#define MFGCP_NUMERICS_QUADRATURE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/grid.h"
#include "numerics/interpolation.h"

// Numerical integration over grids. The mean-field estimator evaluates
// integrals of the form  ∫ g(q) λ(q) dq  (Eqs. 17–18 and the Δq̄ estimate),
// which we compute by trapezoid quadrature on the FPK grid.
//
// The span overloads are allocation-free (TrapezoidProduct fuses the
// pointwise product into the quadrature sum) and accept rows of flat
// TimeField2D storage; the vector overloads remain for brace-initialized
// call sites and delegate to them.

namespace mfg::numerics {

// Trapezoid integral of grid samples f over the grid's span.
common::StatusOr<double> Trapezoid(const Grid1D& grid,
                                   std::span<const double> f);
common::StatusOr<double> Trapezoid(const Grid1D& grid,
                                   const std::vector<double>& f);

// Trapezoid integral of f * g (pointwise product), e.g. ∫ x(q) λ(q) dq.
common::StatusOr<double> TrapezoidProduct(const Grid1D& grid,
                                          std::span<const double> f,
                                          std::span<const double> g);
common::StatusOr<double> TrapezoidProduct(const Grid1D& grid,
                                          const std::vector<double>& f,
                                          const std::vector<double>& g);

// Integral of f restricted to the sub-interval [a, b] ∩ [lo, hi], with
// partial cells handled by linear interpolation of f at a and b. Used for
// the Δq̄ split at the threshold α·Q_k.
common::StatusOr<double> TrapezoidOnInterval(const Grid1D& grid,
                                             std::span<const double> f,
                                             double a, double b);
common::StatusOr<double> TrapezoidOnInterval(const Grid1D& grid,
                                             const std::vector<double>& f,
                                             double a, double b);

// What TrapezoidOnInterval resolves from the grid and [a, b] before it
// reads f: the clamped endpoints' interpolation points, the full cells
// between them and the widths of the two partial end cells. It depends on
// no field, so callers that integrate many fields over one fixed interval
// (the mean-field estimator's α·Q_k split) resolve it once.
struct IntervalBounds {
  enum class Shape : std::uint8_t {
    kEmpty,    // a >= b after clamping: the integral is 0.
    kOneCell,  // a and b fall in one cell: one trapezoid from fa to fb.
    kCells,    // Partial cell, full cells [first, last), partial cell.
  };
  Shape shape = Shape::kEmpty;
  CellPoint a;
  CellPoint b;
  std::size_t first = 0;     // First node strictly greater than a.
  std::size_t last = 0;      // Last node strictly less than b.
  double left_width = 0.0;   // x(first) − a.
  double right_width = 0.0;  // b − x(last).
  double width = 0.0;        // b − a.
  double dx = 0.0;
};

IntervalBounds ResolveInterval(const Grid1D& grid, double a, double b);

// TrapezoidOnInterval on resolved bounds. Unchecked: f must hold the
// samples of the grid the bounds were resolved on.
double TrapezoidOnInterval(const IntervalBounds& bounds,
                           std::span<const double> f);

// TrapezoidOnInterval split around its full-cell sum, for callers that
// sum the full cells themselves (the lane-parallel estimator sweeps every
// lane's cells in one pass). `at(i)` is f at node i. For kCells bounds the
// integral is, in exactly this order,
//
//   acc = IntervalHead(bounds, at);
//   for (i = first; i < last; ++i) acc += IntervalCell(f_i, f_{i+1}, dx);
//   return IntervalTail(bounds, acc, at);
//
// and for the other shapes IntervalTail alone, whatever `acc` holds.
inline double IntervalCell(double f0, double f1, double dx) {
  return 0.5 * (f0 + f1) * dx;
}

template <typename At>
double IntervalHead(const IntervalBounds& bounds, At at) {
  const double fa =
      Lerp(at(bounds.a.cell), at(bounds.a.cell + 1), bounds.a.t);
  return 0.5 * (fa + at(bounds.first)) * bounds.left_width;
}

template <typename At>
double IntervalTail(const IntervalBounds& bounds, double acc, At at) {
  if (bounds.shape == IntervalBounds::Shape::kEmpty) return 0.0;
  const double fb =
      Lerp(at(bounds.b.cell), at(bounds.b.cell + 1), bounds.b.t);
  if (bounds.shape == IntervalBounds::Shape::kOneCell) {
    const double fa =
        Lerp(at(bounds.a.cell), at(bounds.a.cell + 1), bounds.a.t);
    return 0.5 * (fa + fb) * bounds.width;
  }
  return acc + 0.5 * (at(bounds.last) + fb) * bounds.right_width;
}

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_QUADRATURE_H_
