#include "core/fpk_batch.h"

#include <algorithm>
#include <string>

#include "numerics/finite_difference.h"
#include "numerics/simd_support.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

// Hot lane loops as pointer-only free functions, for the same reason as in
// hjb_batch.cc: member-vector reads mixed with double stores defeat the
// vectorizer's aliasing analysis, and MFGCP_BATCH_TARGET_CLONES adds
// AVX2/AVX-512 clones behind runtime dispatch.

// Finite-volume face fluxes: advective donor-cell + central diffusive.
// Boundary faces (0 and nq) are written by the caller and stay zero.
MFGCP_BATCH_TARGET_CLONES
void ComputeFaceFluxes(std::size_t nq, std::size_t m, const double* vel,
                       const double* lam, const double* d_over_dx,
                       double* __restrict flux) {
  for (std::size_t face = 1; face < nq; ++face) {
    const std::size_t row = face * m;
    const std::size_t prev = (face - 1) * m;
    for (std::size_t l = 0; l < m; ++l) {
      const double v_face = 0.5 * (vel[prev + l] + vel[row + l]);
      const double donor = v_face > 0.0 ? lam[prev + l] : lam[row + l];
      const double advective = v_face * donor;
      const double diffusive =
          -d_over_dx[l] * (lam[row + l] - lam[prev + l]);
      flux[row + l] = advective + diffusive;
    }
  }
}

// One masked explicit flux-divergence step of the densities (double-wide
// select mask, as in the HJB value update).
MFGCP_BATCH_TARGET_CLONES
void ApplyFluxUpdate(std::size_t nq, std::size_t m, const double* flux,
                     const double* dt_sub_over_dx, const double* update,
                     double* __restrict lam) {
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t row = i * m;
    const std::size_t next = (i + 1) * m;
    for (std::size_t l = 0; l < m; ++l) {
      const double updated =
          lam[row + l] -
          dt_sub_over_dx[l] * (flux[next + l] - flux[row + l]);
      lam[row + l] = numerics::LaneSelect(update[l], updated, lam[row + l]);
    }
  }
}

}  // namespace

void FpkBatchSolver::Reset(std::size_t num_lanes) {
  num_lanes_ = num_lanes;
  bound_lanes_ = 0;
  params_.resize(num_lanes);
  grids_.resize(num_lanes);
  content_size_.resize(num_lanes);
  dx_.resize(num_lanes);
  substeps_.resize(num_lanes);
  d_over_dx_.resize(num_lanes);
  dt_sub_over_dx_.resize(num_lanes);
}

common::Status FpkBatchSolver::BindLane(std::size_t lane,
                                        const MfgParams& params) {
  if (lane >= num_lanes_) {
    return common::Status::InvalidArgument("lane out of range");
  }
  MFG_RETURN_IF_ERROR(params.Validate());
  if (params.grid.implicit_fpk) {
    return common::Status::InvalidArgument(
        "the batched FPK solver steps explicitly; implicit_fpk contents "
        "solve on FpkSolver1D");
  }
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  const std::size_t nq = q_grid.size();
  const std::size_t nt = params.grid.num_time_steps;
  if (bound_lanes_ == 0) {
    nq_ = nq;
    nt_ = nt;
    neg_w1_avail_.Assign(nq, num_lanes_, 0.0);
  } else if (nq != nq_ || nt != nt_) {
    return common::Status::InvalidArgument(
        "batch lanes must share the grid shape");
  }
  ++bound_lanes_;

  params_[lane] = params;
  grids_[lane] = q_grid;
  for (std::size_t i = 0; i < nq; ++i) {
    neg_w1_avail_.at(i, lane) =
        -params.dynamics.w1 * params.ControlAvailability(q_grid.x(i));
  }
  content_size_[lane] = params.content_size;
  dx_[lane] = q_grid.dx();
  const CflSubsteps steps = params.CflSubstepsFor(q_grid.dx());
  substeps_[lane] = steps.count;
  // The scalar solver's once-per-solve reciprocal hoists, per lane.
  d_over_dx_[lane] = steps.diffusion / dx_[lane];
  dt_sub_over_dx_[lane] = steps.dt_sub / dx_[lane];
  return common::Status::Ok();
}

common::Status FpkBatchSolver::MakeInitialDensityInto(
    std::size_t lane, numerics::Density1D& out) const {
  return core::MakeInitialDensityInto(params_[lane], grids_[lane], out);
}

void FpkBatchSolver::SolveInto(std::span<LaneIo> lanes, Workspace& ws) const {
  MFG_OBS_SPAN("FpkBatch.SolveInto");
  MFG_OBS_SCOPED_TIMER("core.fpk.sweep_seconds");
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  const std::size_t nt = nt_;

  std::vector<std::uint8_t>& alive = ws.alive;
  std::vector<double>& update = ws.update;
  alive.assign(m, 0);
  update.assign(m, 0.0);
  ws.bad.assign(m, 0.0);
  ws.clip_mass.assign(m, 0.0);
  ws.clip_failed.assign(m, 0);

  std::size_t max_substeps = 0;
  for (std::size_t l = 0; l < m; ++l) {
    LaneIo& lane = lanes[l];
    if (!lane.active) continue;
    MFG_OBS_COUNT("core.fpk.sweeps", 1);
    lane.status = BeginFpkSolve(params_[l], grids_[l], *lane.initial,
                                *lane.policy, *lane.solution);
    if (!lane.status.ok()) continue;
    alive[l] = 1;
    max_substeps = std::max(max_substeps, substeps_[l]);
  }

  ws.lambda.Assign(nq, m, 0.0);
  ws.velocity.Assign(nq, m, 0.0);
  ws.face_flux.Assign(nq + 1, m, 0.0);
  for (std::size_t l = 0; l < m; ++l) {
    if (!alive[l]) continue;
    const std::vector<double>& init = lanes[l].initial->values();
    for (std::size_t i = 0; i < nq; ++i) ws.lambda.at(i, l) = init[i];
  }

  double* lam = ws.lambda.data();
  double* vel = ws.velocity.data();
  double* flux = ws.face_flux.data();
  const double* nwd = neg_w1_avail_.data();
  const double* d_dx = d_over_dx_.data();
  const double* dts_dx = dt_sub_over_dx_.data();

  for (std::size_t n = 0; n < nt; ++n) {
    // Drift under the node-n policy slice, gathered per lane from its
    // (row-major, per-content) policy field.
    for (std::size_t l = 0; l < m; ++l) {
      if (!alive[l]) continue;
      const NodeDriftTerms terms = params_[l].DriftTermsAt(n);
      const auto policy_row = (*lanes[l].policy)[n];
      for (std::size_t i = 0; i < nq; ++i) {
        vel[i * m + l] = content_size_[l] * (nwd[i * m + l] * policy_row[i] -
                                             terms.retention + terms.discard);
      }
    }

    for (std::size_t sub = 0; sub < max_substeps; ++sub) {
      for (std::size_t l = 0; l < m; ++l) {
        update[l] = (alive[l] != 0 && sub < substeps_[l]) ? 1.0 : 0.0;
      }
      // Finite-volume face fluxes: advective donor-cell + central
      // diffusive; boundary faces stay zero -> reflecting.
      for (std::size_t l = 0; l < m; ++l) {
        flux[l] = 0.0;
        flux[nq * m + l] = 0.0;
      }
      ComputeFaceFluxes(nq, m, vel, lam, d_dx, flux);
      ApplyFluxUpdate(nq, m, flux, dts_dx, update.data(), lam);
      std::fill(ws.bad.begin(), ws.bad.end(), 0.0);
      numerics::AccumulateNonFiniteLanesInto(ws.lambda, ws.bad);
      for (std::size_t l = 0; l < m; ++l) {
        if (update[l] == 0.0 || ws.bad[l] == 0.0) continue;
        MFG_FLIGHT_EVENT(kDivergence, obs::kFlightDivergenceFpk,
                         params_[l].content_id,
                         static_cast<std::uint32_t>(n), 0.0, 0.0);
        lanes[l].status = common::Status::NumericalError(
            "FPK density diverged at time node " + std::to_string(n));
        alive[l] = 0;
      }
    }

    // Lane-parallel clip-and-normalize in SoA layout (bit-identical to the
    // scalar Density1D::ClipAndNormalize per lane), then scatter each live
    // lane's normalized row into its Density1D — λ never leaves the batch
    // layout. A lane whose mass underflows keeps its clipped row (the
    // scalar failure path leaves out the same way) and drops out.
    numerics::ClipAndNormalizeBatchInto(std::span<const double>(dx_),
                                        ws.lambda, ws.clip_mass,
                                        ws.clip_failed);
    for (std::size_t l = 0; l < m; ++l) {
      if (!alive[l]) continue;
      numerics::Density1D& out = lanes[l].solution->densities[n + 1];
      std::vector<double>& values = out.mutable_values();
      for (std::size_t i = 0; i < nq; ++i) values[i] = lam[i * m + l];
      if (ws.clip_failed[l] != 0) {
        lanes[l].status = common::Status::NumericalError("density mass is ~0");
        alive[l] = 0;
      }
    }
  }

  for (std::size_t l = 0; l < m; ++l) {
    if (!alive[l]) continue;
    MFG_FLIGHT_EVENT(kFpkSweep, 0, params_[l].content_id, 0,
                     static_cast<double>(substeps_[l]),
                     obs::FlightMaxAbs(std::span<const double>(
                         lanes[l].solution->densities[nt].values())));
  }
}

}  // namespace mfg::core
