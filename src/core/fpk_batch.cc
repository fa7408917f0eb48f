#include "core/fpk_batch.h"

#include <algorithm>
#include <string>

#include "numerics/simd_support.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

// Hot lane loops as pointer-only free functions, for the same reason as in
// hjb_batch.cc: member-vector reads mixed with double stores defeat the
// vectorizer's aliasing analysis, and MFGCP_BATCH_TARGET_CLONES adds
// AVX2/AVX-512 clones behind runtime dispatch.

// One explicit substep as a single pass over the density rows. Face i+1's
// flux (advective donor-cell + central diffusive) is computed from the old
// λᵢ and λᵢ₊₁ before λᵢ is updated, and carried in a register as the left
// face of row i+1; boundary faces 0 and nq carry zero flux (reflecting).
// Every expression is FpkSolver1D's explicit substep verbatim, on the same
// pre-update values, so each lane is bitwise the scalar sweep. The update
// is masked by a double-wide select (as in the HJB value update), and
// `bad` accumulates v − v of every updated sample: v − v is +0.0 for
// every finite v and NaN for ±inf/NaN, so the sum stays exactly 0.0 iff
// the lane stayed finite — an unconditional accumulation that vectorizes
// at any ISA width (the build never enables -ffinite-math-only).
//
// M is the compile-time lane count (0 = runtime `mm`, carrying the left
// face flux in `left_flux`), dispatched like FusedHjbSubstep. The lane
// loop is kept rolled (#pragma GCC unroll 1) so the loop vectorizer maps
// it to one vector per row at every M: fully unrolled, GCC's
// straight-line vectorizer judged M = 2 and 4 unprofitable and left them
// scalar, with a branch per donor choice.
template <std::size_t M>
__attribute__((always_inline)) inline void FusedFpkSubstepImpl(
    std::size_t nq, std::size_t mm, const double* vel, const double* d_over_dx,
    const double* dt_sub_over_dx, const double* update, double* __restrict lam,
    double* __restrict bad, double* __restrict left_flux) {
  const std::size_t m = M ? M : mm;
  constexpr std::size_t kStatic = M ? M : 1;
  double left_s[kStatic], bad_s[kStatic];
  double* left = M ? left_s : left_flux;
  double* acc = M ? bad_s : bad;
  for (std::size_t l = 0; l < m; ++l) {
    left[l] = 0.0;
    acc[l] = 0.0;
  }
  for (std::size_t i = 0; i + 1 < nq; ++i) {
    const std::size_t row = i * m;
    const std::size_t next = row + m;
#pragma GCC unroll 1
    for (std::size_t l = 0; l < m; ++l) {
      // Both samples loaded up front, so the donor choice is a select,
      // not a branch around a load.
      const double here = lam[row + l];
      const double there = lam[next + l];
      const double v_face = 0.5 * (vel[row + l] + vel[next + l]);
      const double donor = v_face > 0.0 ? here : there;
      const double advective = v_face * donor;
      const double diffusive = -d_over_dx[l] * (there - here);
      const double right = advective + diffusive;
      const double updated = here - dt_sub_over_dx[l] * (right - left[l]);
      const double v = numerics::LaneSelect(update[l], updated, here);
      lam[row + l] = v;
      acc[l] += v - v;
      left[l] = right;
    }
  }
  const std::size_t row = (nq - 1) * m;
  for (std::size_t l = 0; l < m; ++l) {
    const double updated = lam[row + l] - dt_sub_over_dx[l] * (0.0 - left[l]);
    const double v = numerics::LaneSelect(update[l], updated, lam[row + l]);
    lam[row + l] = v;
    acc[l] += v - v;
    if constexpr (M != 0) bad[l] = acc[l];
  }
}

MFGCP_BATCH_TARGET_CLONES
void FusedFpkSubstep(std::size_t nq, std::size_t m, const double* vel,
                     const double* d_over_dx, const double* dt_sub_over_dx,
                     const double* update, double* __restrict lam,
                     double* __restrict bad, double* __restrict left_flux) {
#define MFGCP_FPK_SUBSTEP(M)                                              \
  FusedFpkSubstepImpl<M>(nq, m, vel, d_over_dx, dt_sub_over_dx, update, lam, \
                         bad, left_flux)
  MFGCP_DISPATCH_LANE_WIDTH(m, MFGCP_FPK_SUBSTEP)
#undef MFGCP_FPK_SUBSTEP
}

// The drift b(t_n, q_i) of every lane under its policy slab, as one pass:
// FpkSolver1D's velocity expression with the lane's node terms.
MFGCP_BATCH_TARGET_CLONES
void DriftVelocityInto(std::size_t nq, std::size_t m, const double* nwd,
                       const double* pol, const double* content_size,
                       const double* retention, const double* discard,
                       double* __restrict vel) {
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t row = i * m;
    for (std::size_t l = 0; l < m; ++l) {
      vel[row + l] = content_size[l] * (nwd[row + l] * pol[row + l] -
                                        retention[l] + discard[l]);
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
    retention_.Assign(nt, num_lanes_, 0.0);
    discard_.Assign(nt, num_lanes_, 0.0);
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
  for (std::size_t n = 0; n < nt; ++n) {
    const NodeDriftTerms terms = params.DriftTermsAt(n);
    retention_.at(n, lane) = terms.retention;
    discard_.at(n, lane) = terms.discard;
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

std::span<const double> FpkBatchSolver::DensityRows(const Workspace& ws,
                                                     std::size_t n) const {
  const std::size_t slab = nq_ * num_lanes_;
  return {ws.lambda.data() + n * slab, slab};
}

void FpkBatchSolver::Sweep(std::span<LaneIo> lanes,
                           const numerics::BatchField& policy,
                           Workspace& ws) const {
  ws.alive.assign(num_lanes_, 0);
  for (std::size_t l = 0; l < num_lanes_; ++l) {
    LaneIo& lane = lanes[l];
    if (!lane.active) continue;
    MFG_OBS_COUNT("core.fpk.sweeps", 1);
    lane.status = common::Status::Ok();
    ws.alive[l] = 1;
  }
  Run(lanes, policy.data(), ws);
}

void FpkBatchSolver::SolveInto(std::span<LaneIo> lanes, Workspace& ws) const {
  const std::size_t m = num_lanes_;
  const std::size_t nodes = (nt_ + 1) * nq_;
  ws.alive.assign(m, 0);
  ws.policy.Reshape(nodes, m);
  for (std::size_t l = 0; l < m; ++l) {
    LaneIo& lane = lanes[l];
    if (!lane.active) continue;
    MFG_OBS_COUNT("core.fpk.sweeps", 1);
    lane.status = BeginFpkSolve(params_[l], grids_[l], *lane.initial,
                                *lane.policy, *lane.solution);
    if (!lane.status.ok()) continue;
    ws.alive[l] = 1;
    ws.policy.CopyLaneFrom(l, 0, {lane.policy->data(), nodes});
  }
  Run(lanes, ws.policy.data(), ws);
  for (std::size_t l = 0; l < m; ++l) {
    if (!lanes[l].active || !lanes[l].status.ok()) continue;
    WriteLane(l, ws, *lanes[l].initial, *lanes[l].solution);
  }
}

void FpkBatchSolver::WriteLane(std::size_t lane, const Workspace& ws,
                               const numerics::Density1D& initial,
                               FpkSolution& out) const {
  ShapeFpkSolution(params_[lane], grids_[lane], initial, out);
  for (std::size_t n = 1; n <= nt_; ++n) {
    ws.lambda.CopyLaneTo(lane, n * nq_, out.densities[n].mutable_values());
  }
}

void FpkBatchSolver::Run(std::span<LaneIo> lanes, const double* policy,
                         Workspace& ws) const {
  MFG_OBS_SPAN("FpkBatch.Sweep");
  // Per K-lane call (the per-content sweep counter is core.fpk.sweeps).
  MFG_OBS_SCOPED_TIMER("core.fpk.block_seconds");
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  const std::size_t nt = nt_;

  std::vector<std::uint8_t>& alive = ws.alive;
  std::vector<double>& update = ws.update;
  update.assign(m, 0.0);
  ws.bad.assign(m, 0.0);
  ws.clip_mass.assign(m, 0.0);
  ws.clip_failed.assign(m, 0);

  std::size_t max_substeps = 0;
  for (std::size_t l = 0; l < m; ++l) {
    if (alive[l]) max_substeps = std::max(max_substeps, substeps_[l]);
  }

  // Only a new shape costs anything: live lanes' columns are written
  // below before they are read, and dead lanes' columns, whatever they
  // hold, never reach an output.
  const std::size_t slab = nq * m;
  ws.lambda.Reshape((nt + 1) * nq, m);
  ws.velocity.Reshape(nq, m);
  ws.left_flux.resize(m);
  for (std::size_t l = 0; l < m; ++l) {
    if (alive[l]) ws.lambda.CopyLaneFrom(l, 0, lanes[l].initial->values());
  }

  double* lam0 = ws.lambda.data();
  double* vel = ws.velocity.data();
  const double* nwd = neg_w1_avail_.data();
  const double* d_dx = d_over_dx_.data();
  const double* dts_dx = dt_sub_over_dx_.data();

  for (std::size_t n = 0; n < nt; ++n) {
    // Time node n+1 starts as node n's rows and is stepped in place.
    double* lam = lam0 + (n + 1) * slab;
    std::copy(lam - slab, lam, lam);

    // Drift under the node-n policy slab.
    DriftVelocityInto(nq, m, nwd, policy + n * slab, content_size_.data(),
                      retention_[n].data(), discard_[n].data(), vel);

    for (std::size_t sub = 0; sub < max_substeps; ++sub) {
      for (std::size_t l = 0; l < m; ++l) {
        update[l] = (alive[l] != 0 && sub < substeps_[l]) ? 1.0 : 0.0;
      }
      FusedFpkSubstep(nq, m, vel, d_dx, dts_dx, update.data(), lam,
                      ws.bad.data(), ws.left_flux.data());
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
    // scalar Density1D::ClipAndNormalize per lane). A lane whose mass
    // underflows keeps its clipped row (the scalar failure path leaves out
    // the same way) and drops out.
    numerics::ClipAndNormalizeBatchInto(std::span<const double>(dx_),
                                        std::span<double>(lam, slab),
                                        ws.clip_mass, ws.clip_failed);
    for (std::size_t l = 0; l < m; ++l) {
      if (alive[l] && ws.clip_failed[l] != 0) {
        lanes[l].status = common::Status::NumericalError("density mass is ~0");
        alive[l] = 0;
      }
    }
  }

  for (std::size_t l = 0; l < m; ++l) {
    if (!alive[l]) continue;
    MFG_FLIGHT_EVENT(kFpkSweep, 0, params_[l].content_id, 0,
                     static_cast<double>(substeps_[l]),
                     obs::FlightMaxAbs(lam0 + nt * slab + l, nq, m));
  }
}

}  // namespace mfg::core
