#ifndef MFGCP_CORE_FPK_SOLVER_H_
#define MFGCP_CORE_FPK_SOLVER_H_

#include <vector>

#include "common/status.h"
#include "core/mfg_params.h"
#include "numerics/density.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"
#include "numerics/tridiagonal.h"

// Forward Fokker–Planck–Kolmogorov solver (Eq. 15): evolves the mean-field
// density of the cache state under the population's caching policy,
//
//   ∂_t λ + ∂_q [ b(t, q) λ ] − ½ ϱ_q² ∂²_qq λ = 0,
//   b(t, q) = Q_k ( −w1 x(t, q) − w2 Π + w3 ξ^L ),
//
// with reflecting (zero-flux) boundaries at q = 0 and q = Q_k — cache
// space is physically confined to [0, Q_k]. The scheme is finite-volume:
// advective face fluxes use donor-cell upwinding, diffusive face fluxes
// are central, and boundary faces carry zero flux, so the discrete total
// mass is conserved to rounding. A guard clips negative undershoot and
// renormalizes (drift at most O(1e-12) per step in practice; tested).
//
// Shapes are validated once per Solve(); the stepping itself runs raw-double
// kernels with the per-node control availability tabulated at construction.
// SolveInto reuses a caller Workspace and the previous solution's density
// storage, so the steady state of the best-response iteration performs no
// heap allocation.

namespace mfg::core {

struct FpkSolution {
  numerics::Grid1D q_grid;
  double dt = 0.0;
  std::vector<numerics::Density1D> densities;  // λ(t_n, ·), n = 0..Nt.

  std::size_t num_time_nodes() const { return densities.size(); }
};

// Sets the solution's grid and step and reuses its density storage when
// the shape still matches (the steady state of the best-response loop),
// rebuilding it otherwise; densities[0] holds `initial` on return. The
// batched solvers shape each lane's output with it when they write the
// lane out.
void ShapeFpkSolution(const MfgParams& params, const numerics::Grid1D& q_grid,
                      const numerics::Density1D& initial,
                      FpkSolution& solution);

// The per-solve preamble both FPK solvers run for one content: checks the
// initial density's grid and the policy's shape, then ShapeFpkSolution.
common::Status BeginFpkSolve(const MfgParams& params,
                             const numerics::Grid1D& q_grid,
                             const numerics::Density1D& initial,
                             const numerics::TimeField2D& policy,
                             FpkSolution& solution);

// The initial density prescribed by `params` on `q_grid` (truncated
// Gaussian with mean init_mean_frac·Q_k and std init_std_frac·Q_k),
// reusing `out`'s sample storage.
common::Status MakeInitialDensityInto(const MfgParams& params,
                                      const numerics::Grid1D& q_grid,
                                      numerics::Density1D& out);

class FpkSolver1D {
 public:
  // Scratch buffers reused across Solve calls (sized on first use).
  struct Workspace {
    std::vector<double> lambda;
    std::vector<double> velocity;
    std::vector<double> face_flux;
    numerics::TridiagonalSystem system;        // Implicit stepping only.
    numerics::TridiagonalWorkspace tridiagonal;
  };

  static common::StatusOr<FpkSolver1D> Create(const MfgParams& params);

  // Re-parameterizes the solver in place (see HjbSolver1D::Rebind):
  // revalidates `params` and recomputes the per-node tables reusing their
  // storage; allocation-free when the q-grid size is unchanged.
  common::Status Rebind(const MfgParams& params);

  // Evolves `initial` forward under `policy` (policy[n][i] = x at time
  // node n, q node i; needs num_time_steps + 1 slices — the slice at node
  // n drives the interval [t_n, t_{n+1})).
  common::StatusOr<FpkSolution> Solve(const numerics::Density1D& initial,
                                      const numerics::TimeField2D& policy)
      const;

  // Nested-vector convenience overload (tests, benches); rejects ragged
  // tables, then delegates to the flat-field path.
  common::StatusOr<FpkSolution> Solve(
      const numerics::Density1D& initial,
      const std::vector<std::vector<double>>& policy) const;

  // In-place variant writing into `solution`; when `solution` already holds
  // a trajectory of matching shape its density storage is reused row by
  // row, making repeated calls allocation-free.
  common::Status SolveInto(const numerics::Density1D& initial,
                           const numerics::TimeField2D& policy,
                           Workspace& workspace, FpkSolution& solution) const;

  // The initial density prescribed by the params (truncated Gaussian with
  // mean init_mean_frac·Q_k and std init_std_frac·Q_k).
  common::StatusOr<numerics::Density1D> MakeInitialDensity() const;

  // In-place variant reusing `out`'s sample storage; allocation-free once
  // `out` has held a density of the solver's grid size.
  common::Status MakeInitialDensityInto(numerics::Density1D& out) const;

 private:
  FpkSolver1D(const MfgParams& params, const numerics::Grid1D& q_grid);

  // (Re)computes the per-node tables from params_/q_grid_; shared by the
  // constructor and Rebind.
  void InitTables();

  MfgParams params_;
  numerics::Grid1D q_grid_;
  // Hot-loop invariant: (−w1)·a(q_i), the drift's control gain.
  std::vector<double> neg_w1_avail_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_FPK_SOLVER_H_
