#include "core/best_response.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "core/fault_injection.h"
#include "core/nonconvergence_log.h"
#include "econ/utility.h"
#include "numerics/interpolation.h"
#include "numerics/simd_support.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {

namespace {

// The running max of term(k) over k < total, from 0.0. Eight independent
// accumulators let the loop vectorize; the result is the single running
// max's, bit for bit, because max is exact and order-free here: every term
// is |x| (so no −0.0) and std::max(acc, NaN) keeps acc, so a NaN term is
// skipped whichever accumulator sees it.
template <typename Term>
double RunningMax(std::size_t total, Term term) {
  constexpr std::size_t kWays = 8;
  double acc[kWays] = {};
  std::size_t k = 0;
  for (; k + kWays <= total; k += kWays) {
    for (std::size_t j = 0; j < kWays; ++j) {
      acc[j] = std::max(acc[j], term(k + j));
    }
  }
  for (; k < total; ++k) acc[0] = std::max(acc[0], term(k));
  double result = 0.0;
  for (double a : acc) result = std::max(result, a);
  return result;
}

// RelaxLanes' pass for M lanes (0 = runtime `mm`, accumulating straight
// into the outputs), dispatched like the batched solvers' kernels; the
// lane loop stays rolled for the loop vectorizer.
template <std::size_t M>
__attribute__((always_inline)) inline void RelaxLanesImpl(
    std::size_t nodes, std::size_t mm, const double* gamma,
    double* __restrict policy, const double* candidate, const double* value,
    const double* previous, double* __restrict policy_change,
    double* __restrict value_change) {
  const std::size_t m = M ? M : mm;
  constexpr std::size_t kStatic = M ? M : 1;
  double dp_s[kStatic], dv_s[kStatic];
  double* dp = M ? dp_s : policy_change;
  double* dv = M ? dv_s : value_change;
  for (std::size_t l = 0; l < m; ++l) {
    dp[l] = 0.0;
    dv[l] = 0.0;
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::size_t row = i * m;
#pragma GCC unroll 1
    for (std::size_t l = 0; l < m; ++l) {
      const double p = policy[row + l];
      const double updated =
          (1.0 - gamma[l]) * p + gamma[l] * candidate[row + l];
      dp[l] = std::max(dp[l], std::fabs(updated - p));
      policy[row + l] = updated;
      dv[l] = std::max(dv[l],
                       std::fabs(value[row + l] - previous[row + l]));
    }
  }
  if constexpr (M != 0) {
    for (std::size_t l = 0; l < m; ++l) {
      policy_change[l] = dp[l];
      value_change[l] = dv[l];
    }
  }
}

}  // namespace

double MaxAbsDifference(const numerics::TimeField2D& a,
                        const numerics::TimeField2D& b) {
  const double* pa = a.data();
  const std::size_t total = a.size() * a.cols();
  if (b.size() * b.cols() == total) {
    const double* pb = b.data();
    return RunningMax(total, [pa, pb](std::size_t k) {
      return std::fabs(pa[k] - pb[k]);
    });
  }
  return RunningMax(total, [pa](std::size_t k) { return std::fabs(pa[k]); });
}

void ResetEquilibrium(Equilibrium& eq) {
  eq.iterations = 0;
  eq.converged = false;
  eq.policy_change_history.clear();
  eq.value_change_history.clear();
  eq.hjb.value.clear();
  eq.hjb.policy.clear();
}

common::Status EstimateMeanFieldInto(const MeanFieldEstimator& estimator,
                                     const FpkSolution& fpk,
                                     const numerics::TimeField2D& policy,
                                     MeanFieldEstimator::Workspace& ws,
                                     std::vector<MeanFieldQuantities>& out) {
  out.resize(fpk.densities.size());
  for (std::size_t n = 0; n < out.size(); ++n) {
    MFG_RETURN_IF_ERROR(
        estimator.EstimateInto(fpk.densities[n], policy[n], ws, out[n]));
  }
  return common::Status::Ok();
}

MFGCP_BATCH_TARGET_CLONES
void RelaxLanes(std::span<const double> relaxation, std::size_t nodes,
                double* policy, const double* candidate, const double* value,
                const double* previous_value, double* policy_change,
                double* value_change) {
  const std::size_t m = relaxation.size();
#define MFGCP_RELAX_LANES(M)                                                 \
  RelaxLanesImpl<M>(nodes, m, relaxation.data(), policy, candidate, value, \
                    previous_value, policy_change, value_change)
  MFGCP_DISPATCH_LANE_WIDTH(m, MFGCP_RELAX_LANES)
#undef MFGCP_RELAX_LANES
}

bool RecordIteration(const LearningParams& learning, std::size_t content_id,
                     std::size_t iter, double policy_change,
                     double value_change, Equilibrium& eq) {
  eq.policy_change_history.push_back(policy_change);
  eq.value_change_history.push_back(value_change);
  MFG_FLIGHT_EVENT(kIteration, 0, content_id,
                   static_cast<std::uint32_t>(iter), policy_change,
                   value_change);
  if (policy_change < learning.tolerance) eq.converged = true;
  return eq.converged;
}

common::Status FinishSolve(const MeanFieldEstimator& estimator,
                           const LearningParams& learning,
                           std::size_t content_id,
                           MeanFieldEstimator::Workspace& ws,
                           Equilibrium& eq) {
  MFG_OBS_OBSERVE_COUNTS("core.best_response.iterations",
                         static_cast<double>(eq.iterations));
  if (!eq.converged) {
    MFG_OBS_COUNT("core.best_response.nonconverged", 1);
    // At most one line per epoch per content; repeats only bump the
    // counter above and the suppressed tally.
    std::uint64_t suppressed = 0;
    if (ShouldLogNonConvergence(content_id, suppressed)) {
      MFG_LOG(WARNING) << "best response did not converge for content "
                       << content_id << ": residual "
                       << eq.policy_change_history.back() << " > tolerance "
                       << learning.tolerance << " after " << eq.iterations
                       << " iterations" << SuppressedSuffix(suppressed);
    } else {
      MFG_OBS_COUNT("core.best_response.nonconvergence_suppressed", 1);
    }
  } else {
    MFG_OBS_COUNT("core.best_response.converged", 1);
  }
  MFG_FLIGHT_EVENT(
      kSolveEnd, eq.converged ? std::uint8_t{1} : std::uint8_t{0},
      content_id, static_cast<std::uint32_t>(eq.iterations),
      eq.policy_change_history.empty() ? 0.0
                                       : eq.policy_change_history.back(),
      eq.value_change_history.empty() ? 0.0
                                      : eq.value_change_history.back());
  return EstimateMeanFieldInto(estimator, eq.fpk, eq.hjb.policy, ws,
                               eq.mean_field);
}

common::StatusOr<BestResponseLearner> BestResponseLearner::Create(
    const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_FAULT_POINT(kRebind);
  MFG_ASSIGN_OR_RETURN(HjbSolver1D hjb, HjbSolver1D::Create(params));
  MFG_ASSIGN_OR_RETURN(FpkSolver1D fpk, FpkSolver1D::Create(params));
  MFG_ASSIGN_OR_RETURN(MeanFieldEstimator estimator,
                       MeanFieldEstimator::Create(params));
  return BestResponseLearner(params, std::move(hjb), std::move(fpk),
                             std::move(estimator));
}

common::Status BestResponseLearner::Rebind(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_FAULT_POINT(kRebind);
  MFG_RETURN_IF_ERROR(hjb_.Rebind(params));
  MFG_RETURN_IF_ERROR(fpk_.Rebind(params));
  MFG_RETURN_IF_ERROR(estimator_.Rebind(params));
  params_ = params;
  return common::Status::Ok();
}

common::StatusOr<Equilibrium> BestResponseLearner::Solve() const {
  MFG_ASSIGN_OR_RETURN(numerics::Density1D initial,
                       fpk_.MakeInitialDensity());
  return SolveFrom(initial, 0.5);
}

common::StatusOr<Equilibrium> BestResponseLearner::SolveFrom(
    const numerics::Density1D& initial, double initial_rate) const {
  Workspace workspace;
  Equilibrium eq;
  MFG_RETURN_IF_ERROR(SolveFromInto(initial, initial_rate, workspace, eq));
  return eq;
}

common::Status BestResponseLearner::SolveInto(Workspace& workspace,
                                              Equilibrium& out) const {
  MFG_FAULT_POINT(kSolve);
  MFG_RETURN_IF_ERROR(fpk_.MakeInitialDensityInto(workspace.initial));
  return SolveFromInto(workspace.initial, 0.5, workspace, out);
}

common::Status BestResponseLearner::SolveFromInto(
    const numerics::Density1D& initial, double initial_rate, Workspace& ws,
    Equilibrium& out) const {
  if (initial_rate < 0.0 || initial_rate > 1.0) {
    return common::Status::InvalidArgument(
        "initial policy rate must be in [0, 1]");
  }
  MFG_OBS_SPAN("BestResponse.Solve");
  MFG_OBS_SCOPED_TIMER("core.best_response.seconds");
  MFG_OBS_COUNT("core.best_response.solves", 1);
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = params_.grid.num_q_nodes;

  Equilibrium& eq = out;
  ResetEquilibrium(eq);
  // The relaxed policy iterate lives in eq.hjb.policy, the population's
  // actual play. V⁰ = 0: iteration 1's value residual measures against
  // the zero initialization.
  eq.hjb.policy.Assign(nt + 1, nq, initial_rate);
  eq.hjb.value.Assign(nt + 1, nq, 0.0);

  // λ trajectory under the initial guess (reuses eq.fpk's density storage
  // when the shape still matches).
  MFG_FAULT_POINT(kFpkStep);
  MFG_RETURN_IF_ERROR(fpk_.SolveInto(initial, eq.hjb.policy, ws.fpk, eq.fpk));
  eq.hjb.q_grid = eq.fpk.q_grid;
  eq.hjb.dt = eq.fpk.dt;
  eq.policy_change_history.reserve(params_.learning.max_iterations);
  eq.value_change_history.reserve(params_.learning.max_iterations);

  // ws.hjb_buffer.value and ws.mean_field double-buffer the per-iteration
  // products: each iteration swaps them with the copies held in `eq`, so
  // iteration ψ+1 writes into iteration ψ−1's storage and the loop is
  // allocation-free once both buffers have warmed up.
  const double relaxation = params_.learning.relaxation;
  for (std::size_t iter = 1; iter <= params_.learning.max_iterations;
       ++iter) {
    eq.iterations = iter;

    // (1) Mean-field quantities per time node from (λ, x).
    MFG_RETURN_IF_ERROR(EstimateMeanFieldInto(estimator_, eq.fpk,
                                              eq.hjb.policy, ws.estimator,
                                              ws.mean_field));

    // (2) Backward HJB -> candidate best response.
    MFG_FAULT_POINT(kHjbStep);
    MFG_RETURN_IF_ERROR(hjb_.SolveInto(ws.mean_field, ws.hjb, ws.hjb_buffer));

    // (3) Relaxed policy update + convergence test (Alg. 2, line 6): the
    // batched learner's kernel at one lane.
    double policy_change = 0.0;
    double value_change = 0.0;
    RelaxLanes({&relaxation, 1}, (nt + 1) * nq, eq.hjb.policy.data(),
               ws.hjb_buffer.policy.data(), ws.hjb_buffer.value.data(),
               eq.hjb.value.data(), &policy_change, &value_change);
    std::swap(eq.hjb.value, ws.hjb_buffer.value);
    std::swap(eq.mean_field, ws.mean_field);
    if (RecordIteration(params_.learning, params_.content_id, iter,
                        policy_change, value_change, eq)) {
      break;
    }

    // (4) Forward FPK under the relaxed policy.
    MFG_RETURN_IF_ERROR(
        fpk_.SolveInto(initial, eq.hjb.policy, ws.fpk, eq.fpk));
  }

  if (MFG_FAULT_FORCED(kNonConvergence)) eq.converged = false;
  return FinishSolve(estimator_, params_.learning, params_.content_id,
                     ws.estimator, eq);
}

common::StatusOr<EquilibriumRollout> RolloutEquilibrium(
    const MfgParams& params, const Equilibrium& equilibrium, double q0) {
  MFG_RETURN_IF_ERROR(params.Validate());
  if (q0 < 0.0 || q0 > params.content_size) {
    return common::Status::InvalidArgument(
        "q0 must lie in [0, content_size]");
  }
  MFG_ASSIGN_OR_RETURN(econ::CaseModel case_model, params.MakeCaseModel());
  const numerics::Grid1D& grid = equilibrium.hjb.q_grid;
  const std::size_t nt = params.grid.num_time_steps;
  if (equilibrium.hjb.policy.size() != nt + 1 ||
      equilibrium.mean_field.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "equilibrium does not match params' time discretization");
  }
  const double dt = params.TimeStep();

  EquilibriumRollout out;
  out.time.reserve(nt + 1);
  double q = q0;
  double cumulative = 0.0;
  double cumulative_income = 0.0;
  for (std::size_t n = 0; n <= nt; ++n) {
    MFG_ASSIGN_OR_RETURN(
        double x, numerics::LinearInterpolate(grid,
                                              equilibrium.hjb.policy[n], q));
    const MeanFieldQuantities& mf = equilibrium.mean_field[n];

    econ::UtilityInputs in;
    in.content_size = params.content_size;
    in.caching_rate = x;
    in.own_remaining = q;
    in.peer_remaining = mf.mean_peer_remaining;
    in.num_requests = params.RequestsAt(n);
    in.price = mf.price;
    in.edge_rate = params.edge_rate;
    in.sharing_benefit = mf.sharing_benefit;
    in.download_scale = params.ControlAvailability(q);
    in.cases =
        case_model.Evaluate(q, mf.mean_peer_remaining, params.content_size);
    in.sharing_enabled = params.sharing_enabled;
    MFG_ASSIGN_OR_RETURN(econ::UtilityBreakdown u,
                         econ::EvaluateUtility(params.utility, in));

    out.time.push_back(static_cast<double>(n) * dt);
    out.cache_state.push_back(q);
    out.utility.push_back(u.total);
    out.trading_income.push_back(u.trading_income);
    out.staleness_cost.push_back(u.staleness_cost);
    out.sharing_benefit.push_back(u.sharing_benefit);
    cumulative += u.total * dt;
    cumulative_income += u.trading_income * dt;
    out.cumulative_utility.push_back(cumulative);
    out.cumulative_trading_income.push_back(cumulative_income);

    if (n < nt) {
      // Deterministic drift step (mean dynamics), reflected into [0, Q].
      q += params.CacheDriftAtNode(x, q, n) * dt;
      q = common::Clamp(q, 0.0, params.content_size);
    }
  }
  return out;
}

}  // namespace mfg::core
