#include "core/fpk_solver.h"

#include <algorithm>
#include <span>

#include "common/math_util.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {

common::Status BeginFpkSolve(const MfgParams& params,
                             const numerics::Grid1D& q_grid,
                             const numerics::Density1D& initial,
                             const numerics::TimeField2D& policy,
                             FpkSolution& solution) {
  const std::size_t nt = params.grid.num_time_steps;
  if (!(initial.grid() == q_grid)) {
    return common::Status::InvalidArgument(
        "initial density grid does not match the solver grid");
  }
  if (policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "policy must have num_time_steps + 1 slices");
  }
  if (policy.cols() != q_grid.size()) {
    return common::Status::InvalidArgument("policy slice size mismatch");
  }
  ShapeFpkSolution(params, q_grid, initial, solution);
  return common::Status::Ok();
}

void ShapeFpkSolution(const MfgParams& params, const numerics::Grid1D& q_grid,
                      const numerics::Density1D& initial,
                      FpkSolution& solution) {
  const std::size_t nt = params.grid.num_time_steps;
  solution.q_grid = q_grid;
  solution.dt = params.TimeStep();
  const bool reuse = solution.densities.size() == nt + 1 &&
                     solution.densities.front().grid() == q_grid;
  if (!reuse) {
    solution.densities.clear();
    solution.densities.reserve(nt + 1);
    for (std::size_t n = 0; n <= nt; ++n) {
      solution.densities.push_back(initial);
    }
  } else {
    solution.densities.front().mutable_values() = initial.values();
  }
}

common::Status MakeInitialDensityInto(const MfgParams& params,
                                      const numerics::Grid1D& q_grid,
                                      numerics::Density1D& out) {
  return numerics::Density1D::TruncatedGaussianInto(
      q_grid, params.init_mean_frac * params.content_size,
      params.init_std_frac * params.content_size, out);
}

FpkSolver1D::FpkSolver1D(const MfgParams& params,
                         const numerics::Grid1D& q_grid)
    : params_(params), q_grid_(q_grid) {
  InitTables();
}

void FpkSolver1D::InitTables() {
  const std::size_t nq = q_grid_.size();
  neg_w1_avail_.resize(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    neg_w1_avail_[i] =
        -params_.dynamics.w1 * params_.ControlAvailability(q_grid_.x(i));
  }
}

common::StatusOr<FpkSolver1D> FpkSolver1D::Create(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  return FpkSolver1D(params, q_grid);
}

common::Status FpkSolver1D::Rebind(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  params_ = params;
  q_grid_ = q_grid;
  InitTables();
  return common::Status::Ok();
}

common::StatusOr<numerics::Density1D> FpkSolver1D::MakeInitialDensity()
    const {
  return numerics::Density1D::TruncatedGaussian(
      q_grid_, params_.init_mean_frac * params_.content_size,
      params_.init_std_frac * params_.content_size);
}

common::Status FpkSolver1D::MakeInitialDensityInto(
    numerics::Density1D& out) const {
  return core::MakeInitialDensityInto(params_, q_grid_, out);
}

common::StatusOr<FpkSolution> FpkSolver1D::Solve(
    const numerics::Density1D& initial,
    const numerics::TimeField2D& policy) const {
  // The convenience path keeps its own cached scratch: a fresh Workspace
  // per call re-warmed every band buffer (~100 allocations per solve in
  // BM_FpkSolve). thread_local keeps the path safe for concurrent
  // callers while repeated solves on one thread reuse the warm buffers;
  // the hot path (SolveInto) still uses caller-owned scratch.
  static thread_local Workspace workspace;
  FpkSolution solution;
  MFG_RETURN_IF_ERROR(SolveInto(initial, policy, workspace, solution));
  return solution;
}

common::StatusOr<FpkSolution> FpkSolver1D::Solve(
    const numerics::Density1D& initial,
    const std::vector<std::vector<double>>& policy) const {
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = q_grid_.size();
  if (!(initial.grid() == q_grid_)) {
    return common::Status::InvalidArgument(
        "initial density grid does not match the solver grid");
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
  numerics::TimeField2D flat(nt + 1, nq);
  for (std::size_t n = 0; n <= nt; ++n) {
    std::copy(policy[n].begin(), policy[n].end(), flat[n].begin());
  }
  return Solve(initial, flat);
}

common::Status FpkSolver1D::SolveInto(const numerics::Density1D& initial,
                                      const numerics::TimeField2D& policy,
                                      Workspace& ws,
                                      FpkSolution& solution) const {
  MFG_OBS_SPAN("Fpk.SolveInto");
  MFG_OBS_SCOPED_TIMER("core.fpk.sweep_seconds");
  MFG_OBS_COUNT("core.fpk.sweeps", 1);
  MFG_RETURN_IF_ERROR(
      BeginFpkSolve(params_, q_grid_, initial, policy, solution));
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = q_grid_.size();
  const CflSubsteps steps = params_.CflSubstepsFor(q_grid_.dx());

  const double dx = q_grid_.dx();
  const double content_size = params_.content_size;
  // Per-element divisor reciprocals, hoisted once per solve (the substep
  // loop is division-throughput-bound otherwise). The batched solver
  // computes the same expressions per lane at bind time (bit-identity).
  const double d_over_dx = steps.diffusion / dx;
  const double dt_sub_over_dx = steps.dt_sub / dx;
  ws.lambda = initial.values();
  ws.velocity.assign(nq, 0.0);
  ws.face_flux.assign(nq + 1, 0.0);

  // Implicit (backward Euler) assembly: λ^{n+1} satisfies
  //   (I − dt L) λ^{n+1} = λ^n
  // where L is the same flux-form operator the explicit path applies.
  // Writing the face flux between nodes i-1 and i as
  //   F = v⁺ λ_{i-1} + v⁻ λ_i − D (λ_i − λ_{i-1}) / dx
  // (v⁺ = max(v,0), v⁻ = min(v,0)), every face adds ±F/dx to its two
  // adjacent rows, so column sums of L vanish and the discrete mass is
  // conserved by construction. Boundary faces are absent (reflecting).
  auto implicit_step = [&](std::vector<double>& state, double dt_step)
      -> common::Status {
    numerics::TridiagonalSystem& system = ws.system;
    system.lower.assign(nq, 0.0);
    system.diag.assign(nq, 1.0);
    system.upper.assign(nq, 0.0);
    system.rhs = state;
    const double c = dt_step / dx;
    for (std::size_t face = 1; face < nq; ++face) {
      const double v_face = 0.5 * (ws.velocity[face - 1] + ws.velocity[face]);
      const double v_plus = std::max(v_face, 0.0);
      const double v_minus = std::min(v_face, 0.0);
      // Row face-1 gains +F/dx, row face gains −F/dx; move to the LHS
      // with the −dt factor.
      // dF/dλ_{face-1} = v_plus + D/dx; dF/dλ_{face} = v_minus − D/dx.
      system.diag[face - 1] += c * (v_plus + d_over_dx);
      system.upper[face - 1] += c * (v_minus - d_over_dx);
      system.diag[face] += -c * (v_minus - d_over_dx);
      system.lower[face] += -c * (v_plus + d_over_dx);
    }
    return numerics::SolveTridiagonalInto(system, ws.tridiagonal, state);
  };

  for (std::size_t n = 0; n < nt; ++n) {
    // Drift b(t_n, q_i) under the node-n policy slice; same expression as
    // MfgParams::CacheDriftAtNode with the node constants hoisted.
    const NodeDriftTerms terms = params_.DriftTermsAt(n);
    const auto policy_row = policy[n];
    for (std::size_t i = 0; i < nq; ++i) {
      ws.velocity[i] = content_size * (neg_w1_avail_[i] * policy_row[i] -
                                       terms.retention + terms.discard);
    }
    if (params_.grid.implicit_fpk) {
      MFG_RETURN_IF_ERROR(implicit_step(ws.lambda, steps.dt));
      if (!common::AllFinite(std::span<const double>(ws.lambda))) {
        MFG_FLIGHT_EVENT(kDivergence, obs::kFlightDivergenceFpk,
                         params_.content_id, static_cast<std::uint32_t>(n),
                         0.0, 0.0);
        return common::Status::NumericalError(
            "implicit FPK diverged at time node " + std::to_string(n));
      }
    } else {
      std::vector<double>& lambda = ws.lambda;
      std::vector<double>& face_flux = ws.face_flux;
      for (std::size_t sub = 0; sub < steps.count; ++sub) {
        // Finite-volume face fluxes: advective donor-cell + central
        // diffusive. Boundary faces (0 and nq) stay zero -> reflecting.
        face_flux[0] = 0.0;
        face_flux[nq] = 0.0;
        for (std::size_t face = 1; face < nq; ++face) {
          const double v_face =
              0.5 * (ws.velocity[face - 1] + ws.velocity[face]);
          const double donor =
              v_face > 0.0 ? lambda[face - 1] : lambda[face];
          const double advective = v_face * donor;
          const double diffusive =
              -d_over_dx * (lambda[face] - lambda[face - 1]);
          face_flux[face] = advective + diffusive;
        }
        for (std::size_t i = 0; i < nq; ++i) {
          lambda[i] -= dt_sub_over_dx * (face_flux[i + 1] - face_flux[i]);
        }
        if (!common::AllFinite(std::span<const double>(lambda))) {
          MFG_FLIGHT_EVENT(kDivergence, obs::kFlightDivergenceFpk,
                           params_.content_id, static_cast<std::uint32_t>(n),
                           0.0, 0.0);
          return common::Status::NumericalError(
              "FPK density diverged at time node " + std::to_string(n));
        }
      }
    }
    numerics::Density1D& out = solution.densities[n + 1];
    out.mutable_values() = ws.lambda;
    MFG_RETURN_IF_ERROR(out.ClipAndNormalize());
    ws.lambda = out.values();
  }
  MFG_FLIGHT_EVENT(
      kFpkSweep, 0, params_.content_id, 0, static_cast<double>(steps.count),
      obs::FlightMaxAbs(std::span<const double>(solution.densities[nt].values())));
  return common::Status::Ok();
}

}  // namespace mfg::core
