#ifndef MFGCP_CORE_BEST_RESPONSE_H_
#define MFGCP_CORE_BEST_RESPONSE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/fpk_solver.h"
#include "core/hjb_solver.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"

// Iterative best-response learning (Algorithm 2): the fixed-point loop
// that couples the backward HJB equation (the generic player's best
// response) with the forward FPK equation (the population's density
// evolution). Each iteration:
//
//   1. estimate the mean-field quantities from (λ, x)            [Eq. 17-18]
//   2. solve the HJB backward under those quantities  -> x_new    [Eq. 20-21]
//   3. relax: x <- (1-γ) x + γ x_new and test convergence         [Alg. 2 l.6]
//   4. solve the FPK forward under x                 -> λ         [Eq. 15]
//
// Theorem 2 guarantees a unique fixed point; the relaxation factor γ only
// affects the path to it (the ablation bench sweeps γ and grid size).

namespace mfg::core {

// The converged mean-field equilibrium for one content.
struct Equilibrium {
  HjbSolution hjb;                       // V(t, q) and x*(t, q).
  FpkSolution fpk;                       // λ(t, q).
  std::vector<MeanFieldQuantities> mean_field;  // Per time node.
  std::size_t iterations = 0;
  bool converged = false;
  // Convergence trace, one entry per fixed-point iteration. Both vectors
  // are reserved to max_iterations up front, so the trace records without
  // reallocating inside the solve loop (and benches can reproduce Fig. 9
  // style residual plots from the result alone).
  //   policy_change_history[ψ−1] = max_{t,q} |x^ψ − x^{ψ−1}|
  //   value_change_history[ψ−1]  = max_{t,q} |V^ψ − V^{ψ−1}|
  //     (iteration 1 has no predecessor value surface; its entry is
  //      max |V^1|, the change from the zero initialization).
  std::vector<double> policy_change_history;
  std::vector<double> value_change_history;
};

// max_k |a[k] − b[k]| over two equally-sized flat fields; when `b` has a
// different size (iteration 1: the previous value surface is empty) the
// residual is taken against zero. Read-only telemetry — never feeds back
// into the iteration. Shared by the 1-D, batched and 2-D learners.
double MaxAbsDifference(const numerics::TimeField2D& a,
                        const numerics::TimeField2D& b);

// Per-content steps of Alg. 2 that BestResponseLearner::SolveFromInto and
// BatchBestResponseLearner::SolveInto (lane by lane) both run, so the two
// learners share one copy of the bookkeeping. Fault polls stay with the
// callers: the scalar learner polls under the worker's ambient scope, the
// batch learner under a per-lane scope.

// Resets a (possibly reused) `eq` to the fresh-Equilibrium state while
// keeping every buffer's capacity, so no previous solve's surface or
// trace survives into this one.
void ResetEquilibrium(Equilibrium& eq);

// Mean-field quantities per time node from (λ = fpk.densities, x =
// policy); `out` is resized to one entry per density.
common::Status EstimateMeanFieldInto(const MeanFieldEstimator& estimator,
                                     const FpkSolution& fpk,
                                     const numerics::TimeField2D& policy,
                                     MeanFieldEstimator::Workspace& ws,
                                     std::vector<MeanFieldQuantities>& out);

// Step 3's arithmetic for K contents at once (the lanes), on fields of
// `nodes` samples per lane in [node][lane] layout (numerics::BatchField;
// with one lane that is the row-major TimeField2D): the relaxed update
// x ← (1 − γ_l)·x + γ_l·x̂ in place on `policy`, and per lane the two
// residuals of Equilibrium's histories, max |Δx| and max |V − V_prev|.
// One pass with per-lane max accumulators; max is exact and order-free
// here (every term is |·|, and a NaN term is skipped), so each lane's
// residuals are the bits of a row-major scan of its own fields.
// relaxation, policy_change and value_change hold one entry per lane.
void RelaxLanes(std::span<const double> relaxation, std::size_t nodes,
                double* policy, const double* candidate, const double* value,
                const double* previous_value, double* policy_change,
                double* value_change);

// Step 3's bookkeeping for one content: appends iteration `iter`'s
// residuals to eq's histories, records the kIteration flight event, and
// sets eq.converged when the policy change fell below the tolerance.
// Returns eq.converged.
bool RecordIteration(const LearningParams& learning, std::size_t content_id,
                     std::size_t iter, double policy_change,
                     double value_change, Equilibrium& eq);

// The post-loop epilogue: iterations histogram, converged/nonconverged
// counters, the rate-limited non-convergence WARN, the kSolveEnd flight
// event, and a mean-field refresh for the final (policy, density) pair so
// callers see a consistent triple (x, λ, mf).
common::Status FinishSolve(const MeanFieldEstimator& estimator,
                           const LearningParams& learning,
                           std::size_t content_id,
                           MeanFieldEstimator::Workspace& ws,
                           Equilibrium& eq);

class BestResponseLearner {
 public:
  // Long-lived scratch for SolveInto: the initial density, the sub-solver
  // workspaces, and the double buffers the fixed-point loop swaps with the
  // Equilibrium (the relaxed policy iterate itself lives in
  // Equilibrium::hjb.policy). An epoch worker owns one Workspace for its
  // whole lifetime; every buffer is re-shaped in place, so repeated solves
  // on the same grid shape never touch the heap.
  struct Workspace {
    numerics::Density1D initial;
    HjbSolver1D::Workspace hjb;
    FpkSolver1D::Workspace fpk;
    MeanFieldEstimator::Workspace estimator;
    HjbSolution hjb_buffer;
    std::vector<MeanFieldQuantities> mean_field;
  };

  static common::StatusOr<BestResponseLearner> Create(const MfgParams& params);

  // Re-parameterizes the learner and its sub-solvers in place — the pooled
  // epoch workers rebind one long-lived learner per content instead of
  // constructing fresh ones. Allocation-free when the grid shape is
  // unchanged. On failure the learner must be rebound again before use
  // (in practice all failure modes are caught by params.Validate() before
  // any member is touched).
  common::Status Rebind(const MfgParams& params);

  // Runs Alg. 2 from the params' initial density and a flat initial
  // policy guess.
  common::StatusOr<Equilibrium> Solve() const;

  // Same, but from an explicit initial density and/or initial policy
  // guess (policy guess is a constant rate in [0, 1]). Used by the
  // uniqueness property tests (different starts -> same fixed point).
  common::StatusOr<Equilibrium> SolveFrom(const numerics::Density1D& initial,
                                          double initial_rate) const;

  // Hot-path counterpart of Solve(): writes the equilibrium into `out`,
  // reusing its storage and `workspace` scratch. Bit-identical to Solve()
  // (guarded by solver_equivalence_test) and zero heap allocations once
  // both have warmed up on the current grid shape.
  common::Status SolveInto(Workspace& workspace, Equilibrium& out) const;

  // SolveFrom's in-place counterpart; Solve/SolveFrom delegate here with
  // fresh storage.
  common::Status SolveFromInto(const numerics::Density1D& initial,
                               double initial_rate, Workspace& workspace,
                               Equilibrium& out) const;

  const MfgParams& params() const { return params_; }

 private:
  BestResponseLearner(const MfgParams& params, HjbSolver1D hjb,
                      FpkSolver1D fpk, MeanFieldEstimator estimator)
      : params_(params),
        hjb_(std::move(hjb)),
        fpk_(std::move(fpk)),
        estimator_(std::move(estimator)) {}

  MfgParams params_;
  HjbSolver1D hjb_;
  FpkSolver1D fpk_;
  MeanFieldEstimator estimator_;
};

// Accumulates the generic player's realized utility along the equilibrium:
// integrates U(t, x*(t, q(t)), q(t)) over [0, T] for a cache trajectory
// started at q0 and driven by the equilibrium policy (deterministic drift;
// the Brownian term averages out). Returns per-time-node cumulative
// utility and the trajectory itself. Used by Figs. 9-13.
struct EquilibriumRollout {
  std::vector<double> time;         // t_n.
  std::vector<double> cache_state;  // q(t_n).
  std::vector<double> utility;      // Instantaneous U(t_n).
  std::vector<double> cumulative_utility;
  std::vector<double> trading_income;
  std::vector<double> staleness_cost;
  std::vector<double> sharing_benefit;
  std::vector<double> cumulative_trading_income;
};

common::StatusOr<EquilibriumRollout> RolloutEquilibrium(
    const MfgParams& params, const Equilibrium& equilibrium, double q0);

}  // namespace mfg::core

#endif  // MFGCP_CORE_BEST_RESPONSE_H_
