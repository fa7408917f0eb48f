#ifndef MFGCP_CORE_BEST_RESPONSE_BATCH_H_
#define MFGCP_CORE_BEST_RESPONSE_BATCH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/best_response.h"
#include "core/fpk_batch.h"
#include "core/hjb_batch.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"

// Content-batched counterpart of BestResponseLearner: runs Alg. 2 for K
// contents (the lanes) in lockstep, delegating the mean-field estimate and
// the HJB/FPK sweeps to the SoA batch layer so the per-node inner loops
// vectorize across lanes. The estimate reads each time node's density
// rows straight from the FPK batch workspace (FpkBatchSolver::DensityRows):
// every lane still in the loop took part in the last FPK sweep, so those
// rows are its current λ. The post-loop mean-field refresh stays per lane
// on eq.fpk, since a lane that converged skipped the last sweep.
//
// Bit-identity contract (guarded by batch_equivalence_test and the epoch
// goldens): lane l performs the exact per-iteration sequence of
// BestResponseLearner::SolveInto on lane-l data — estimate, HJB, relaxed
// update, residual bookkeeping, FPK — with no cross-lane arithmetic, so
// its Equilibrium is bitwise equal to the scalar learner's; the reset,
// relaxed update and epilogue are the scalar learner's own helpers
// (best_response.h). Lanes may converge at
// different iterations; a converged lane simply drops out of the lockstep
// loop (and, exactly like the scalar `break`, skips the final FPK), while
// a lane that exhausts max_iterations unconverged still runs the trailing
// FPK sweep of its last loop body.
//
// Failure routing: a lane that fails (divergence, injected fault, ...)
// records the scalar learner's error in its LaneJob::status and stops
// participating; the remaining lanes are unaffected. The epoch path then
// re-runs failed lanes on the scalar recovery ladder (mfg_cp.cc), so
// degraded contents see the identical retry/carry-forward/fallback
// behavior as before.
//
// Fault injection: the scalar solve polls kSolve / kFpkStep / kHjbStep /
// kNonConvergence under the worker's ambient (epoch, content, attempt)
// scope. The batch solve has no single ambient content, so each poll
// opens a per-lane scope with that lane's coordinates at attempt 0 —
// firing decisions are purely functional in those coordinates, so the
// determinism contract is unchanged.

namespace mfg::core {

class BatchBestResponseLearner {
 public:
  // Per-lane solve state mirroring BestResponseLearner::Workspace (minus
  // the sub-solver scratch, which lives batch-wide below; `estimator` is
  // the final refresh's).
  struct LaneScratch {
    numerics::Density1D initial;
    numerics::TimeField2D policy;
    MeanFieldEstimator::Workspace estimator;
    HjbSolution hjb_buffer;
    std::vector<MeanFieldQuantities> mean_field;
  };

  // Long-lived scratch; all buffers re-shape in place so repeated solves
  // on a warmed grid shape never touch the heap (allocs_per_epoch=0).
  struct Workspace {
    std::vector<LaneScratch> lanes;
    MeanFieldBatchEstimator::Workspace estimator;
    HjbBatchSolver::Workspace hjb;
    FpkBatchSolver::Workspace fpk;
    std::vector<MeanFieldBatchEstimator::LaneIo> estimator_io;
    std::vector<HjbBatchSolver::LaneIo> hjb_io;
    std::vector<FpkBatchSolver::LaneIo> fpk_io;
    std::vector<std::uint8_t> running;   // Lane still in the lockstep loop.
  };

  // One content's solve request/result. `epoch`/`content` key the
  // fault-injection plan; `out` receives the equilibrium (storage reused
  // across epochs, exactly like the scalar SolveInto contract).
  struct LaneJob {
    std::size_t epoch = 0;
    std::size_t content = 0;
    bool active = false;
    Equilibrium* out = nullptr;
    common::Status status;
  };

  BatchBestResponseLearner() = default;

  // Declares the batch width; lanes [0, num_lanes) must be bound before
  // SolveInto. Keeps table capacity across calls.
  void Reset(std::size_t num_lanes);

  // Validates and tabulates lane `lane` (the batched Rebind). All bound
  // lanes must share the grid shape. Polls the kRebind fault site under
  // the caller's ambient fault scope, like the scalar Rebind.
  common::Status BindLane(std::size_t lane, const MfgParams& params);

  std::size_t num_lanes() const { return num_lanes_; }

  // Runs Alg. 2 for every active lane from the params' initial density
  // and a flat 0.5 initial policy guess (the epoch path's invocation of
  // the scalar SolveInto). lanes.size() must equal num_lanes(). Statuses
  // are per lane; the call itself cannot fail globally.
  void SolveInto(std::span<LaneJob> lanes, Workspace& ws) const;

 private:
  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;
  std::size_t nt_ = 0;

  HjbBatchSolver hjb_;
  FpkBatchSolver fpk_;
  // optional<> because MeanFieldEstimator has no default constructor;
  // engaged lanes are Rebind()-ed in place on later epochs. The scalar
  // estimators serve the final refresh; batch_estimator_ holds copies of
  // their tables for the in-loop estimate.
  std::vector<std::optional<MeanFieldEstimator>> estimators_;
  MeanFieldBatchEstimator batch_estimator_;

  // Per-lane learning controls and content ids of the bound params.
  std::vector<LearningParams> learning_;
  std::vector<std::size_t> content_id_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_BEST_RESPONSE_BATCH_H_
