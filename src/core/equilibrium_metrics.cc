#include "core/equilibrium_metrics.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "core/fpk_solver.h"
#include "core/hjb_solver.h"
#include "numerics/finite_difference.h"
#include "numerics/quadrature.h"

namespace mfg::core {

double ExploitabilityReport::RelativeGap() const {
  return gap / std::max(std::fabs(best_response_value), 1.0);
}

common::StatusOr<std::vector<std::vector<double>>> EvaluatePolicyValue(
    const MfgParams& params,
    const std::vector<MeanFieldQuantities>& mean_field,
    const std::vector<std::vector<double>>& policy) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(HjbSolver1D hjb, HjbSolver1D::Create(params));
  const std::size_t nt = params.grid.num_time_steps;
  const std::size_t nq = q_grid.size();
  if (mean_field.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "mean_field must have num_time_steps + 1 entries");
  }
  if (policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "policy must have num_time_steps + 1 slices");
  }
  for (const auto& slice : policy) {
    if (slice.size() != nq) {
      return common::Status::InvalidArgument("policy slice size mismatch");
    }
  }

  const CflSubsteps steps = params.CflSubstepsFor(q_grid.dx());

  std::vector<std::vector<double>> value(nt + 1,
                                         std::vector<double>(nq, 0.0));
  std::vector<double> v(nq, 0.0);
  std::vector<double> drift(nq), upwind_velocity(nq);
  for (std::size_t n = nt; n-- > 0;) {
    const MeanFieldQuantities& mf = mean_field[n];
    for (std::size_t i = 0; i < nq; ++i) {
      drift[i] = params.CacheDriftAtNode(policy[n][i], q_grid.x(i), n);
      upwind_velocity[i] = -drift[i];  // Backward-time transport velocity.
    }
    for (std::size_t sub = 0; sub < steps.count; ++sub) {
      MFG_ASSIGN_OR_RETURN(
          std::vector<double> dv_upwind,
          numerics::UpwindGradient(q_grid, v, upwind_velocity));
      MFG_ASSIGN_OR_RETURN(std::vector<double> d2v,
                           numerics::SecondDerivative(q_grid, v));
      for (std::size_t i = 0; i < nq; ++i) {
        MFG_ASSIGN_OR_RETURN(
            double utility,
            hjb.RunningUtilityAtNode(policy[n][i], q_grid.x(i), mf, n));
        v[i] += steps.dt_sub * (drift[i] * dv_upwind[i] +
                                steps.diffusion * d2v[i] + utility);
      }
      if (!common::AllFinite(v)) {
        return common::Status::NumericalError(
            "policy-value recursion diverged at node " + std::to_string(n));
      }
    }
    value[n] = v;
  }
  return value;
}

common::StatusOr<ExploitabilityReport> ComputeExploitabilityOfPolicy(
    const MfgParams& params, const Equilibrium& equilibrium,
    const std::vector<std::vector<double>>& policy) {
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  if (equilibrium.mean_field.size() != params.grid.num_time_steps + 1) {
    return common::Status::InvalidArgument(
        "equilibrium does not match params' discretization");
  }

  // Best-response value against the fixed population.
  MFG_ASSIGN_OR_RETURN(HjbSolver1D hjb, HjbSolver1D::Create(params));
  MFG_ASSIGN_OR_RETURN(HjbSolution best_response,
                       hjb.Solve(equilibrium.mean_field));
  // Value of the candidate policy against the same population.
  MFG_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> policy_value,
      EvaluatePolicyValue(params, equilibrium.mean_field, policy));

  const auto& initial = equilibrium.fpk.densities.front();
  ExploitabilityReport report;
  MFG_ASSIGN_OR_RETURN(
      report.best_response_value,
      numerics::TrapezoidProduct(q_grid, initial.values(),
                                 best_response.value[0]));
  MFG_ASSIGN_OR_RETURN(
      report.policy_value,
      numerics::TrapezoidProduct(q_grid, initial.values(), policy_value[0]));
  report.gap = report.best_response_value - report.policy_value;
  for (std::size_t i = 0; i < q_grid.size(); ++i) {
    report.max_pointwise =
        std::max(report.max_pointwise,
                 best_response.value[0][i] - policy_value[0][i]);
  }
  return report;
}

common::StatusOr<ExploitabilityReport> ComputeExploitability(
    const MfgParams& params, const Equilibrium& equilibrium) {
  return ComputeExploitabilityOfPolicy(params, equilibrium,
                                       equilibrium.hjb.policy.ToNested());
}

common::StatusOr<double> ComputeConsistencyResidual(
    const MfgParams& params, const Equilibrium& equilibrium) {
  const std::size_t nt = params.grid.num_time_steps;
  if (equilibrium.fpk.densities.size() != nt + 1 ||
      equilibrium.hjb.policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "equilibrium does not match params' discretization");
  }
  MFG_ASSIGN_OR_RETURN(FpkSolver1D fpk, FpkSolver1D::Create(params));
  MFG_ASSIGN_OR_RETURN(FpkSolution resolved,
                       fpk.Solve(equilibrium.fpk.densities.front(),
                                 equilibrium.hjb.policy));
  double residual = 0.0;
  for (std::size_t n = 0; n <= nt; ++n) {
    MFG_ASSIGN_OR_RETURN(
        double l1,
        resolved.densities[n].L1Distance(equilibrium.fpk.densities[n]));
    residual = std::max(residual, l1);
  }
  return residual;
}

}  // namespace mfg::core
