#ifndef MFGCP_NUMERICS_FINITE_DIFFERENCE_H_
#define MFGCP_NUMERICS_FINITE_DIFFERENCE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/batch_field.h"
#include "numerics/grid.h"

// Finite-difference operators on uniform 1-D grids. These back both PDE
// solvers: upwind first derivatives for advection (stability of HJB/FPK
// transport terms), central second derivatives for the Brownian diffusion
// terms, and a CFL helper for choosing explicit time steps.
//
// Each operator comes in two flavors:
//   * a validated StatusOr API returning a fresh vector (convenient for
//     tests and cold paths), and
//   * a raw `*Into` kernel writing into a caller-provided buffer with no
//     validation and no allocation — the building block of the solvers'
//     steady-state-allocation-free inner loops. `*Into` requires all spans
//     to have the same nonzero length and `out` must not alias `f`.

namespace mfg::numerics {

// out[0] and out[n-1] are one-sided, the interior is central (second-order
// interior, first-order boundary).
void GradientInto(double dx, std::span<const double> f, std::span<double> out);

// Upwind first derivative: at node i uses the backward difference when
// velocity[i] > 0 and the forward difference otherwise, matching the
// information flow of the advection term  velocity * df/dx.
void UpwindGradientInto(double dx, std::span<const double> f,
                        std::span<const double> velocity,
                        std::span<double> out);

// Central second derivative with zero-curvature (linear extrapolation)
// boundary treatment.
void SecondDerivativeInto(double dx, std::span<const double> f,
                          std::span<double> out);

// ---------------------------------------------------------------------------
// Content-batched (structure-of-arrays) kernels.
//
// GradientBatchInto applies GradientInto to every lane of a BatchField at
// once: lane l sees the lane-l samples of `f` and receives exactly the
// scalar result bit-for-bit — the lane loop is a per-lane transcription of
// the scalar expression tree (same operations, same order, no cross-lane
// arithmetic). The innermost loops are unit-stride across lanes and
// auto-vectorize, with runtime AVX2/AVX-512 clones where the build carries
// them (numerics/simd_support.h). The batched HJB computes all its
// stencils inline (FusedHjbSubstep and PolicyFromValue in
// core/hjb_batch.cc), so no solver calls this kernel any more; it stays
// as the tested lane-parallel form of GradientInto.
//
// Instead of the spacing itself the kernel takes *precomputed
// reciprocals*, mirroring the scalar kernels' once-per-call hoist
// (division has far lower throughput than multiply). For the bit-identity
// contract the caller must fill them with the identical expressions the
// scalar kernel uses:
//   inv_dx[l]  = 1.0 / dx[l]
//   inv_2dx[l] = 1.0 / (2.0 * dx[l])
//
// Requirements mirror the scalar kernel: f and out share nodes()/lanes(),
// every reciprocal span has size >= lanes(), out must not alias f,
// nodes() >= 2.
// ---------------------------------------------------------------------------

void GradientBatchInto(std::span<const double> inv_dx,
                       std::span<const double> inv_2dx, const BatchField& f,
                       BatchField& out);


// First derivative by central differences in the interior, one-sided at the
// boundaries.
common::StatusOr<std::vector<double>> Gradient(const Grid1D& grid,
                                               const std::vector<double>& f);

common::StatusOr<std::vector<double>> UpwindGradient(
    const Grid1D& grid, const std::vector<double>& f,
    const std::vector<double>& velocity);

common::StatusOr<std::vector<double>> SecondDerivative(
    const Grid1D& grid, const std::vector<double>& f);

// Largest stable explicit time step for advection speed `max_speed` and
// diffusion coefficient `diffusion` (sigma^2/2) on spacing dx:
//   dt <= safety * min(dx / max_speed, dx^2 / (2 * diffusion)).
// Returns +inf when both terms vanish.
double StableTimeStep(double dx, double max_speed, double diffusion,
                      double safety = 0.9);

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_FINITE_DIFFERENCE_H_
