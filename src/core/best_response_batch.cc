#include "core/best_response_batch.h"

#include <utility>

#include "core/fault_injection.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

// Per-lane fault polls. The scalar solve relies on the worker's ambient
// (epoch, content, attempt) scope; the batch solve opens a lane-local
// scope per poll instead (attempt 0 — ladder retries run scalar). Firing
// is purely functional in the coordinates, so this preserves the
// determinism contract at any parallelism / batch width.
common::Status LaneFaultCheck(const BatchBestResponseLearner::LaneJob& job,
                              faults::FaultSite site) {
  faults::ScopedFaultScope scope(job.epoch, job.content, 0);
  return faults::Check(site);
}

bool LaneFaultFires(const BatchBestResponseLearner::LaneJob& job,
                    faults::FaultSite site) {
  faults::ScopedFaultScope scope(job.epoch, job.content, 0);
  return faults::Fires(site);
}

}  // namespace

void BatchBestResponseLearner::Reset(std::size_t num_lanes) {
  num_lanes_ = num_lanes;
  bound_lanes_ = 0;
  hjb_.Reset(num_lanes);
  fpk_.Reset(num_lanes);
  batch_estimator_.Reset(num_lanes);
  estimators_.resize(num_lanes);
  learning_.resize(num_lanes);
  content_id_.resize(num_lanes);
  relaxation_.resize(num_lanes);
}

common::Status BatchBestResponseLearner::BindLane(std::size_t lane,
                                                  const MfgParams& params) {
  if (lane >= num_lanes_) {
    return common::Status::InvalidArgument("lane out of range");
  }
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_FAULT_POINT(kRebind);
  MFG_RETURN_IF_ERROR(hjb_.BindLane(lane, params));
  MFG_RETURN_IF_ERROR(fpk_.BindLane(lane, params));
  if (estimators_[lane].has_value()) {
    MFG_RETURN_IF_ERROR(estimators_[lane]->Rebind(params));
  } else {
    MFG_ASSIGN_OR_RETURN(MeanFieldEstimator estimator,
                         MeanFieldEstimator::Create(params));
    estimators_[lane].emplace(std::move(estimator));
  }
  MFG_RETURN_IF_ERROR(batch_estimator_.BindLane(lane, *estimators_[lane]));
  if (bound_lanes_ == 0) {
    nq_ = params.grid.num_q_nodes;
    nt_ = params.grid.num_time_steps;
  }
  ++bound_lanes_;
  learning_[lane] = params.learning;
  content_id_[lane] = params.content_id;
  relaxation_[lane] = params.learning.relaxation;
  return common::Status::Ok();
}

void BatchBestResponseLearner::WriteLane(std::size_t l, Workspace& ws,
                                         Equilibrium& eq) const {
  const std::size_t nodes = (nt_ + 1) * nq_;
  fpk_.WriteLane(l, ws.fpk, ws.lanes[l].initial, eq.fpk);
  eq.hjb.q_grid = eq.fpk.q_grid;
  eq.hjb.dt = eq.fpk.dt;
  eq.hjb.value.Assign(nt_ + 1, nq_);
  eq.hjb.policy.Assign(nt_ + 1, nq_);
  ws.prev_value.CopyLaneTo(l, 0, {eq.hjb.value.data(), nodes});
  ws.policy.CopyLaneTo(l, 0, {eq.hjb.policy.data(), nodes});
  eq.mean_field = ws.lanes[l].mean_field;
}

void BatchBestResponseLearner::SolveInto(std::span<LaneJob> lanes,
                                         Workspace& ws) const {
  MFG_OBS_SPAN("BestResponseBatch.Solve");
  // Per block: one observation for all lanes (the per-content solve
  // counter is core.best_response.solves).
  MFG_OBS_SCOPED_TIMER("core.best_response.block_seconds");
  const std::size_t m = num_lanes_;
  const std::size_t nt = nt_;
  const std::size_t nodes = (nt + 1) * nq_;
  const std::size_t slab = nq_ * m;

  ws.lanes.resize(m);
  ws.estimator_io.resize(m);
  ws.hjb_io.resize(m);
  ws.fpk_io.resize(m);
  ws.running.assign(m, 0);
  ws.policy_change.resize(m);
  ws.value_change.resize(m);
  // The flat 0.5 initial guess, and V⁰ = 0 so that iteration 1's value
  // residual measures against the zero initialization.
  ws.policy.Assign(nodes, m, 0.5);
  ws.prev_value.Assign(nodes, m, 0.0);

  // Per-lane setup: fault poll, initial density, equilibrium reset — the
  // scalar SolveInto preamble, lane by lane.
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    ws.estimator_io[l].active = false;
    ws.hjb_io[l].active = false;
    ws.fpk_io[l].active = false;
    if (!job.active) continue;
    job.status = LaneFaultCheck(job, faults::FaultSite::kSolve);
    if (!job.status.ok()) continue;
    LaneScratch& lane = ws.lanes[l];
    job.status = fpk_.MakeInitialDensityInto(l, lane.initial);
    if (!job.status.ok()) continue;
    MFG_OBS_COUNT("core.best_response.solves", 1);

    Equilibrium& eq = *job.out;
    ResetEquilibrium(eq);
    lane.mean_field.clear();

    // λ trajectory under the initial guess; the scalar path polls
    // kFpkStep once, right before this first FPK sweep.
    job.status = LaneFaultCheck(job, faults::FaultSite::kFpkStep);
    if (!job.status.ok()) continue;
    eq.policy_change_history.reserve(learning_[l].max_iterations);
    eq.value_change_history.reserve(learning_[l].max_iterations);
    ws.fpk_io[l].initial = &lane.initial;
    ws.fpk_io[l].active = true;
    ws.hjb_io[l].mean_field = &lane.mean_field;
    ws.running[l] = 1;
  }

  // Records a failed lane's status and writes it out.
  const auto fail = [&](std::size_t l, common::Status status) {
    lanes[l].status = std::move(status);
    ws.running[l] = 0;
    WriteLane(l, ws, *lanes[l].out);
  };

  fpk_.Sweep(ws.fpk_io, ws.policy, ws.fpk);
  for (std::size_t l = 0; l < m; ++l) {
    if (ws.running[l] && !ws.fpk_io[l].status.ok()) {
      fail(l, ws.fpk_io[l].status);
    }
  }

  // Lockstep fixed-point loop. Each round runs one scalar iteration for
  // every lane still in flight; lanes leave the loop exactly where the
  // scalar control flow would (converged -> before FPK; exhausted ->
  // after the trailing FPK of iteration max_iterations).
  for (std::size_t iter = 1;; ++iter) {
    bool any = false;
    for (std::size_t l = 0; l < m; ++l) {
      ws.estimator_io[l].active = false;
      ws.hjb_io[l].active = false;
      ws.fpk_io[l].active = false;
      if (!ws.running[l]) continue;
      if (iter > learning_[l].max_iterations) {
        ws.running[l] = 0;
        WriteLane(l, ws, *lanes[l].out);
        continue;
      }
      lanes[l].out->iterations = iter;
      ws.lanes[l].mean_field.resize(nt + 1);
      ws.estimator_io[l].active = true;
      any = true;
    }
    if (!any) break;

    // (1) Mean-field quantities per time node from (λ, x), every lane at
    // once.
    for (std::size_t n = 0; n <= nt; ++n) {
      for (std::size_t l = 0; l < m; ++l) {
        if (ws.estimator_io[l].active) {
          ws.estimator_io[l].out = &ws.lanes[l].mean_field[n];
        }
      }
      batch_estimator_.EstimateInto(
          fpk_.DensityRows(ws.fpk, n),
          std::span<const double>(ws.policy.data() + n * slab, slab),
          ws.estimator_io, ws.estimator);
    }

    // (2) Backward HJB -> candidate best response.
    any = false;
    for (std::size_t l = 0; l < m; ++l) {
      if (!ws.estimator_io[l].active) continue;
      common::Status status =
          LaneFaultCheck(lanes[l], faults::FaultSite::kHjbStep);
      if (!status.ok()) {
        fail(l, std::move(status));
        continue;
      }
      ws.hjb_io[l].active = true;
      any = true;
    }
    if (!any) break;

    hjb_.Sweep(ws.hjb_io, ws.hjb);
    for (std::size_t l = 0; l < m; ++l) {
      if (ws.hjb_io[l].active && !ws.hjb_io[l].status.ok()) {
        fail(l, ws.hjb_io[l].status);
      }
    }

    // (3) Relaxed policy update + both residuals for every lane in one
    // pass (lanes that left the loop compute harmlessly), then each
    // lane's bookkeeping and convergence test (Alg. 2, line 6). After the
    // swap, prev_value holds this round's V.
    RelaxLanes(relaxation_, nodes, ws.policy.data(), ws.hjb.policy.data(),
               ws.hjb.value.data(), ws.prev_value.data(),
               ws.policy_change.data(), ws.value_change.data());
    std::swap(ws.hjb.value, ws.prev_value);
    any = false;
    for (std::size_t l = 0; l < m; ++l) {
      if (!ws.hjb_io[l].active || !ws.running[l]) continue;
      if (RecordIteration(learning_[l], content_id_[l], iter,
                          ws.policy_change[l], ws.value_change[l],
                          *lanes[l].out)) {
        // Scalar `break`: skips the FPK sweep, which would overwrite this
        // lane's λ, so the lane is written out now.
        ws.running[l] = 0;
        WriteLane(l, ws, *lanes[l].out);
        continue;
      }
      ws.fpk_io[l].active = true;
      any = true;
    }
    if (!any) continue;

    // (4) Forward FPK under the relaxed policy.
    fpk_.Sweep(ws.fpk_io, ws.policy, ws.fpk);
    for (std::size_t l = 0; l < m; ++l) {
      if (ws.fpk_io[l].active && !ws.fpk_io[l].status.ok()) {
        fail(l, ws.fpk_io[l].status);
      }
    }
  }

  // Post-loop bookkeeping per surviving lane: the scalar epilogue.
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    if (!job.active || !job.status.ok()) continue;
    Equilibrium& eq = *job.out;
    if (LaneFaultFires(job, faults::FaultSite::kNonConvergence)) {
      eq.converged = false;
    }
    job.status = FinishSolve(*estimators_[l], learning_[l], content_id_[l],
                             ws.lanes[l].estimator, eq);
  }
}

}  // namespace mfg::core
