#ifndef MFGCP_CORE_HJB_SOLVER_H_
#define MFGCP_CORE_HJB_SOLVER_H_

#include <vector>

#include "common/status.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"

// Backward Hamilton–Jacobi–Bellman solver for the generic player (Eq. 20):
//
//   ∂_t V + max_x [ Q_k(−w1 x − w2 Π + w3 ξ^L) ∂_q V + ½ ϱ_q² ∂²_qq V
//                   + U(t, x, q, λ) ] = 0,     V(T, ·) = 0,
//
// on the reduced 1-D cache-state domain (the channel coordinate is frozen
// at its OU long-term mean; its drift/diffusion terms then vanish from the
// generic player's equation — see DESIGN.md §4). The inner maximization is
// closed-form (Theorem 1):
//
//   x*(t, q) = [ −( w4 + η₂ Q_k / H_c + Q_k w1 ∂_q V ) / (2 w5) ]₀¹
//
// Discretization: explicit backward Euler with automatic sub-stepping to
// satisfy the advection/diffusion CFL bound, upwind first derivatives
// (biased by the drift sign) and central second derivatives.
//
// The solver validates inputs once per Solve() and then runs raw-double
// kernels on flat storage: per-node control availability and the Theorem-1
// constants are tabulated at construction, the mean-field-dependent utility
// terms (case probabilities, trading income, request-service delay, sharing
// cost) are folded per output time node — they do not change across CFL
// substeps — and only the x-dependent placement and proactive-download
// terms are evaluated inside the substep loop. SolveInto reuses a caller
// Workspace so the steady state of the best-response iteration performs no
// heap allocation.

namespace mfg::core {

// V and x* tabulated on the (time, q) product grid. Index [n][i] is time
// node t_n = n·dt (n = 0..num_time_steps) and q node i; rows are spans
// over flat row-major storage.
struct HjbSolution {
  numerics::Grid1D q_grid;
  double dt = 0.0;
  numerics::TimeField2D value;   // V(t_n, q_i).
  numerics::TimeField2D policy;  // x*(t_n, q_i).

  std::size_t num_time_nodes() const { return value.size(); }
};

// Bind-time tables of one content's HJB sweep: the per-node control
// availability and drift x-gain plus the Theorem-1 constants and the
// reciprocals of the per-element divisors (the substep loops are
// division-throughput- and load-bound otherwise). HjbSolver1D keeps one;
// HjbBatchSolver fills one per lane and scatters it into its [node][lane]
// tables, so both solver families read the same bits.
struct HjbTables {
  std::vector<double> q_coords;  // q_i.
  std::vector<double> avail;     // a(q_i).
  std::vector<double> cs_nw;     // Q_k·(−w1)·a(q_i): drift x-gain.
  double opt_k1 = 0.0;           // (η₂ Q_k) / H_c.
  double opt_k2 = 0.0;           // Q_k w1.
  double inv_2w5 = 0.0;          // 1 / (2 w5).
  double k_delay = 0.0;          // η₂ (Q_k / H_c) (staleness x-gain).
  double inv_edge = 0.0;         // 1 / r_edge.
  double inv_ond = 0.0;          // 1 / H_od.
};

// Fills `out` for `params` on `q_grid`, reusing its storage.
void FillHjbTables(const MfgParams& params, const numerics::Grid1D& q_grid,
                   HjbTables& out);

// The per-solve checks both HJB solvers run for one content: the
// mean-field arity and the econ kernels' preconditions (ServiceDelay /
// StalenessCost), validated once so the node loops run without StatusOr.
common::Status CheckHjbInputs(const MfgParams& params,
                              std::size_t mean_field_size);

// CheckHjbInputs, then shapes `solution` for the sweep.
common::Status BeginHjbSolve(const MfgParams& params,
                             const numerics::Grid1D& q_grid,
                             std::size_t mean_field_size,
                             HjbSolution& solution);

class HjbSolver1D {
 public:
  // Scratch buffers sized on first use (all length nq); reuse across
  // Solve calls keeps the backward sweep allocation-free.
  struct Workspace {
    std::vector<double> v;
    std::vector<double> dv;
    std::vector<double> dv_upwind;
    std::vector<double> d2v;
    std::vector<double> x_star;
    std::vector<double> drift;
    std::vector<double> upwind_velocity;
    // Per-time-node mean-field fold (constant across CFL substeps): every
    // control-independent utility term — trading income, sharing benefit,
    // the request-service part of the staleness cost, sharing cost —
    // collapsed into one per-node constant, so the substep loop streams a
    // single table instead of three plus lane constants.
    std::vector<double> base;
  };

  static common::StatusOr<HjbSolver1D> Create(const MfgParams& params);

  // Re-parameterizes the solver in place: revalidates `params` and
  // recomputes every construction-time table, reusing their storage.
  // Equivalent to replacing *this with *Create(params) but allocation-free
  // when the q-grid size is unchanged — the epoch worker pool rebinds one
  // long-lived solver per content instead of constructing fresh ones.
  common::Status Rebind(const MfgParams& params);

  // Solves backward from V(T) = 0 given the mean-field quantities at each
  // output time node (`mean_field.size()` must be num_time_steps + 1).
  common::StatusOr<HjbSolution> Solve(
      const std::vector<MeanFieldQuantities>& mean_field) const;

  // In-place variant writing into `solution` (resized/refilled; capacity is
  // reused at steady state) using `workspace` scratch. Zero allocations
  // once both have warmed up.
  common::Status SolveInto(const std::vector<MeanFieldQuantities>& mean_field,
                           Workspace& workspace, HjbSolution& solution) const;

  // Theorem 1's closed-form optimizer given the local value gradient and
  // the control availability a(q) (1 away from the full-cache boundary):
  //   x* = [ −( w4 + a·(η₂ Q_k / H_c + Q_k w1 ∂_q V) ) / (2 w5) ]₀¹.
  double OptimalRate(double dq_value, double availability = 1.0) const;

  // The running utility U(t, x, q) under the given mean-field quantities;
  // exposed for tests that check the HJB optimality property. The no-node
  // overload evaluates at time node 0 (constant workloads).
  common::StatusOr<double> RunningUtility(double x, double q,
                                          const MeanFieldQuantities& mf) const;
  common::StatusOr<double> RunningUtilityAtNode(
      double x, double q, const MeanFieldQuantities& mf,
      std::size_t node) const;

 private:
  HjbSolver1D(const MfgParams& params, const numerics::Grid1D& q_grid,
              const econ::CaseModel& case_model);

  MfgParams params_;
  numerics::Grid1D q_grid_;
  econ::CaseModel case_model_;
  HjbTables tables_;  // Hot-loop invariants, refilled by Rebind.
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_HJB_SOLVER_H_
