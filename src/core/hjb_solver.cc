#include "core/hjb_solver.h"

#include <algorithm>
#include <span>

#include "common/math_util.h"
#include "econ/costs.h"
#include "econ/utility.h"
#include "numerics/finite_difference.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {

void FillHjbTables(const MfgParams& params, const numerics::Grid1D& q_grid,
                   HjbTables& out) {
  const std::size_t nq = q_grid.size();
  out.q_coords.resize(nq);
  out.avail.resize(nq);
  out.cs_nw.resize(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    out.q_coords[i] = q_grid.x(i);
    out.avail[i] = params.ControlAvailability(out.q_coords[i]);
    out.cs_nw[i] = params.content_size * (-params.dynamics.w1 * out.avail[i]);
  }
  const auto& staleness = params.utility.staleness;
  out.opt_k1 = staleness.eta2 * params.content_size / staleness.cloud_rate;
  out.opt_k2 = params.content_size * params.dynamics.w1;
  out.inv_2w5 = 1.0 / (2.0 * params.utility.placement.w5);
  out.k_delay = staleness.eta2 * (params.content_size / staleness.cloud_rate);
  out.inv_edge = 1.0 / params.edge_rate;
  out.inv_ond = 1.0 / staleness.cloud_ondemand_rate;
}

common::Status CheckHjbInputs(const MfgParams& params,
                              std::size_t mean_field_size) {
  const std::size_t nt = params.grid.num_time_steps;
  if (mean_field_size != nt + 1) {
    return common::Status::InvalidArgument(
        "mean_field must have num_time_steps + 1 entries, got " +
        std::to_string(mean_field_size));
  }
  const auto& staleness = params.utility.staleness;
  if (staleness.cloud_rate <= 0.0 || staleness.cloud_ondemand_rate <= 0.0) {
    return common::Status::InvalidArgument("cloud rates must be positive");
  }
  if (params.edge_rate <= 0.0) {
    return common::Status::InvalidArgument("edge rate must be positive");
  }
  if (params.content_size <= 0.0) {
    return common::Status::InvalidArgument("content size must be positive");
  }
  if (staleness.eta2 < 0.0) {
    return common::Status::InvalidArgument("eta2 must be non-negative");
  }
  return common::Status::Ok();
}

common::Status BeginHjbSolve(const MfgParams& params,
                             const numerics::Grid1D& q_grid,
                             std::size_t mean_field_size,
                             HjbSolution& solution) {
  MFG_RETURN_IF_ERROR(CheckHjbInputs(params, mean_field_size));
  const std::size_t nt = params.grid.num_time_steps;
  solution.q_grid = q_grid;
  solution.dt = params.TimeStep();
  solution.value.Assign(nt + 1, q_grid.size(), 0.0);
  solution.policy.Assign(nt + 1, q_grid.size(), 0.0);
  return common::Status::Ok();
}

HjbSolver1D::HjbSolver1D(const MfgParams& params,
                         const numerics::Grid1D& q_grid,
                         const econ::CaseModel& case_model)
    : params_(params), q_grid_(q_grid), case_model_(case_model) {
  FillHjbTables(params_, q_grid_, tables_);
}

common::StatusOr<HjbSolver1D> HjbSolver1D::Create(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(econ::CaseModel case_model, params.MakeCaseModel());
  return HjbSolver1D(params, q_grid, case_model);
}

common::Status HjbSolver1D::Rebind(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(econ::CaseModel case_model, params.MakeCaseModel());
  params_ = params;
  q_grid_ = q_grid;
  case_model_ = case_model;
  FillHjbTables(params_, q_grid_, tables_);
  return common::Status::Ok();
}

double HjbSolver1D::OptimalRate(double dq_value, double availability) const {
  const auto& placement = params_.utility.placement;
  const double numerator =
      placement.w4 +
      availability * (tables_.opt_k1 + tables_.opt_k2 * dq_value);
  return common::ClampUnit(-numerator * tables_.inv_2w5);
}

common::StatusOr<double> HjbSolver1D::RunningUtility(
    double x, double q, const MeanFieldQuantities& mf) const {
  return RunningUtilityAtNode(x, q, mf, 0);
}

common::StatusOr<double> HjbSolver1D::RunningUtilityAtNode(
    double x, double q, const MeanFieldQuantities& mf,
    std::size_t node) const {
  econ::UtilityInputs in;
  in.content_size = params_.content_size;
  in.caching_rate = x;
  in.own_remaining = q;
  in.peer_remaining = mf.mean_peer_remaining;
  in.num_requests = params_.RequestsAt(node);
  in.price = mf.price;
  in.edge_rate = params_.edge_rate;
  in.sharing_benefit = mf.sharing_benefit;
  in.download_scale = params_.ControlAvailability(q);
  in.cases = case_model_.Evaluate(q, mf.mean_peer_remaining,
                                  params_.content_size);
  in.sharing_enabled = params_.sharing_enabled;
  MFG_ASSIGN_OR_RETURN(econ::UtilityBreakdown breakdown,
                       econ::EvaluateUtility(params_.utility, in));
  return breakdown.total;
}

common::StatusOr<HjbSolution> HjbSolver1D::Solve(
    const std::vector<MeanFieldQuantities>& mean_field) const {
  Workspace workspace;
  HjbSolution solution;
  MFG_RETURN_IF_ERROR(SolveInto(mean_field, workspace, solution));
  return solution;
}

common::Status HjbSolver1D::SolveInto(
    const std::vector<MeanFieldQuantities>& mean_field, Workspace& ws,
    HjbSolution& solution) const {
  MFG_OBS_SPAN("Hjb.SolveInto");
  MFG_OBS_SCOPED_TIMER("core.hjb.sweep_seconds");
  MFG_OBS_COUNT("core.hjb.sweeps", 1);
  MFG_RETURN_IF_ERROR(
      BeginHjbSolve(params_, q_grid_, mean_field.size(), solution));
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = q_grid_.size();
  const CflSubsteps steps = params_.CflSubstepsFor(q_grid_.dx());
  const double dx = q_grid_.dx();

  ws.v.assign(nq, 0.0);
  ws.dv.assign(nq, 0.0);
  ws.dv_upwind.assign(nq, 0.0);
  ws.d2v.assign(nq, 0.0);
  ws.x_star.assign(nq, 0.0);
  ws.drift.assign(nq, 0.0);
  ws.upwind_velocity.assign(nq, 0.0);
  ws.base.assign(nq, 0.0);

  const double content_size = params_.content_size;
  const double eta2 = params_.utility.staleness.eta2;
  const double w4 = params_.utility.placement.w4;
  const double w5 = params_.utility.placement.w5;
  const double sharing_price = params_.utility.sharing_price;
  const bool sharing = params_.sharing_enabled;

  // Terminal condition V(T, ·) = 0 and the corresponding terminal policy.
  {
    numerics::GradientInto(dx, ws.v, ws.dv);
    const auto policy_row = solution.policy[nt];
    for (std::size_t i = 0; i < nq; ++i) {
      policy_row[i] = OptimalRate(ws.dv[i], tables_.avail[i]);
    }
  }

  for (std::size_t n = nt; n-- > 0;) {
    // Mean-field quantities are held at the *start-of-interval* node n
    // (consistent with the FPK forward pass using the policy at node n).
    const MeanFieldQuantities& mf = mean_field[n];
    const double peer = mf.mean_peer_remaining;
    const double num_requests = params_.RequestsAt(n);
    const NodeDriftTerms terms = params_.DriftTermsAt(n);
    const double share_n = sharing ? mf.sharing_benefit : 0.0;
    const double served_peer = std::max(content_size - peer, 0.0);
    // Drift = cs_nw[i]·x − cs_rd with the node constants pre-multiplied
    // by the content size (one table read + one constant instead of
    // three). The batched solver folds the identical expressions.
    const double cs_rd = content_size * (terms.retention - terms.discard);

    // Fold everything that is independent of the control x: case
    // probabilities, trading income, the request-service part of the
    // staleness, and the sharing cost are fixed within the output
    // interval, so they collapse into the single per-node constant
    // ws.base[i]; only the x-dependent placement and proactive-download
    // terms stay in the substep loop.
    for (std::size_t i = 0; i < nq; ++i) {
      const double q = tables_.q_coords[i];
      econ::CaseProbabilities cases =
          case_model_.Evaluate(q, peer, content_size);
      if (!sharing) {
        cases.p3 += cases.p2;
        cases.p2 = 0.0;
      }
      const double trading = econ::TradingIncome(num_requests, mf.price, cases,
                                                 content_size, q, peer);
      const double served_own = std::max(content_size - q, 0.0);
      const double per_request =
          cases.p1 * served_own * tables_.inv_edge +
          cases.p2 * served_peer * tables_.inv_edge +
          cases.p3 * (std::max(q, 0.0) * tables_.inv_ond +
                      content_size * tables_.inv_edge);
      const double rest_delay = num_requests * per_request;
      const double sharing_cost =
          sharing ? econ::SharingCost(sharing_price, cases.p2, q, peer) : 0.0;
      ws.base[i] = trading + share_n - eta2 * rest_delay - sharing_cost;
    }

    for (std::size_t sub = 0; sub < steps.count; ++sub) {
      numerics::GradientInto(dx, ws.v, ws.dv);
      // Optimal control from the current gradient (Theorem 1).
      for (std::size_t i = 0; i < nq; ++i) {
        const double x = OptimalRate(ws.dv[i], tables_.avail[i]);
        ws.x_star[i] = x;
        const double drift = tables_.cs_nw[i] * x - cs_rd;
        ws.drift[i] = drift;
        // Backward time: in the tau = T - t variable the equation reads
        // dV/dtau + (-drift) dV/dq = ..., so the transport velocity that
        // decides the upwind side is the *negated* drift.
        ws.upwind_velocity[i] = -drift;
      }
      numerics::UpwindGradientInto(dx, ws.v, ws.upwind_velocity,
                                   ws.dv_upwind);
      numerics::SecondDerivativeInto(dx, ws.v, ws.d2v);
      for (std::size_t i = 0; i < nq; ++i) {
        const double x = ws.x_star[i];
        const double placement = w4 * x + w5 * x * x;
        const double utility =
            ws.base[i] - placement - tables_.k_delay * x * tables_.avail[i];
        const double hamiltonian = ws.drift[i] * ws.dv_upwind[i] +
                                   steps.diffusion * ws.d2v[i] + utility;
        // Backward: V(t) = V(t+dt) + dt·H.
        ws.v[i] += steps.dt_sub * hamiltonian;
      }
      if (!common::AllFinite(std::span<const double>(ws.v))) {
        MFG_FLIGHT_EVENT(kDivergence, obs::kFlightDivergenceHjb,
                         params_.content_id, static_cast<std::uint32_t>(n),
                         0.0, 0.0);
        return common::Status::NumericalError(
            "HJB value diverged at time node " + std::to_string(n));
      }
    }
    std::copy(ws.v.begin(), ws.v.end(), solution.value[n].begin());
    numerics::GradientInto(dx, ws.v, ws.dv);
    const auto policy_row = solution.policy[n];
    for (std::size_t i = 0; i < nq; ++i) {
      policy_row[i] = OptimalRate(ws.dv[i], tables_.avail[i]);
    }
  }
  MFG_FLIGHT_EVENT(kHjbSweep, 0, params_.content_id, 0,
                   static_cast<double>(steps.count),
                   obs::FlightMaxAbs(std::span<const double>(ws.v)));
  return common::Status::Ok();
}

}  // namespace mfg::core
