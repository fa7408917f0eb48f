#ifndef MFGCP_NUMERICS_QUADRATURE_H_
#define MFGCP_NUMERICS_QUADRATURE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/grid.h"

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

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_QUADRATURE_H_
