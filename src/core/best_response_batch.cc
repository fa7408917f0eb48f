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
  return common::Status::Ok();
}

void BatchBestResponseLearner::SolveInto(std::span<LaneJob> lanes,
                                         Workspace& ws) const {
  MFG_OBS_SPAN("BestResponseBatch.Solve");
  // Per block: one observation for all lanes (the per-content solve
  // counter is core.best_response.solves).
  MFG_OBS_SCOPED_TIMER("core.best_response.block_seconds");
  const std::size_t m = num_lanes_;
  const std::size_t nt = nt_;
  const std::size_t nq = nq_;

  ws.lanes.resize(m);
  ws.estimator_io.resize(m);
  ws.hjb_io.resize(m);
  ws.fpk_io.resize(m);
  ws.running.assign(m, 0);

  // Per-lane setup: fault poll, initial density, equilibrium reset, flat
  // initial policy — the scalar SolveInto preamble, lane by lane.
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
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
    lane.policy.Assign(nt + 1, nq, 0.5);

    // λ trajectory under the initial guess; the scalar path polls
    // kFpkStep once, right before this first FPK sweep.
    job.status = LaneFaultCheck(job, faults::FaultSite::kFpkStep);
    if (!job.status.ok()) continue;
    ws.fpk_io[l].initial = &lane.initial;
    ws.fpk_io[l].policy = &lane.policy;
    ws.fpk_io[l].solution = &eq.fpk;
    ws.fpk_io[l].active = true;
    ws.hjb_io[l].mean_field = &lane.mean_field;
    ws.hjb_io[l].solution = &lane.hjb_buffer;
    ws.running[l] = 1;
  }

  fpk_.SolveInto(ws.fpk_io, ws.fpk);
  for (std::size_t l = 0; l < m; ++l) {
    if (!ws.running[l]) continue;
    if (!ws.fpk_io[l].status.ok()) {
      lanes[l].status = ws.fpk_io[l].status;
      ws.running[l] = 0;
      continue;
    }
    Equilibrium& eq = *lanes[l].out;
    eq.hjb.q_grid = eq.fpk.q_grid;
    eq.hjb.dt = eq.fpk.dt;
    eq.policy_change_history.reserve(learning_[l].max_iterations);
    eq.value_change_history.reserve(learning_[l].max_iterations);
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
        if (!ws.estimator_io[l].active) continue;
        ws.estimator_io[l].policy = ws.lanes[l].policy[n];
        ws.estimator_io[l].out = &ws.lanes[l].mean_field[n];
      }
      batch_estimator_.EstimateInto(fpk_.DensityRows(ws.fpk, n),
                                    ws.estimator_io, ws.estimator);
    }

    // (2) Backward HJB -> candidate best response.
    any = false;
    for (std::size_t l = 0; l < m; ++l) {
      if (!ws.estimator_io[l].active) continue;
      LaneJob& job = lanes[l];
      job.status = LaneFaultCheck(job, faults::FaultSite::kHjbStep);
      if (!job.status.ok()) {
        ws.running[l] = 0;
        continue;
      }
      ws.hjb_io[l].active = true;
      any = true;
    }
    if (!any) break;

    hjb_.SolveInto(ws.hjb_io, ws.hjb);

    for (std::size_t l = 0; l < m; ++l) {
      if (!ws.hjb_io[l].active) continue;
      LaneJob& job = lanes[l];
      if (!ws.hjb_io[l].status.ok()) {
        job.status = ws.hjb_io[l].status;
        ws.running[l] = 0;
        continue;
      }
      LaneScratch& lane = ws.lanes[l];
      Equilibrium& eq = *job.out;

      // (3) Relaxed policy update + convergence test (Alg. 2, line 6).
      if (RelaxPolicy(learning_[l], content_id_[l], eq.iterations,
                      lane.policy, lane.hjb_buffer, lane.mean_field, eq)) {
        ws.running[l] = 0;  // Scalar `break`: skips the FPK sweep.
        continue;
      }

      // (4) Forward FPK under the relaxed policy.
      ws.fpk_io[l].active = true;
    }

    fpk_.SolveInto(ws.fpk_io, ws.fpk);
    for (std::size_t l = 0; l < m; ++l) {
      if (!ws.fpk_io[l].active) continue;
      if (!ws.fpk_io[l].status.ok()) {
        lanes[l].status = ws.fpk_io[l].status;
        ws.running[l] = 0;
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
