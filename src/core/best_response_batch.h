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
#include "numerics/batch_field.h"
#include "numerics/grid.h"

// Content-batched counterpart of BestResponseLearner: runs Alg. 2 for K
// contents (the lanes) in lockstep on the SoA batch layer, so the
// per-node inner loops vectorize across lanes.
//
// The whole loop stays in the [time·node][lane] layout
// (numerics/batch_field.h). Three fields carry it: the relaxed policy
// iterate (Workspace::policy), the HJB value surface of this round and of
// the last one (HjbBatchSolver::Workspace::value, Workspace::prev_value),
// and λ (FpkBatchSolver::Workspace::lambda). Each round the estimator
// reads λ and the iterate per time node, the HJB sweep writes V and the
// candidate x̂ in place, one lane-parallel pass (RelaxLanes) relaxes the
// iterate and takes both residuals, and the FPK sweep steps λ under the
// iterate. Nothing is scattered or gathered per round: a lane's
// Equilibrium (hjb.value, hjb.policy, fpk.densities, mean_field) is
// written once, when the lane leaves the loop — by converging, by
// exhausting its iterations, or by failing. Every FPK sweep rewrites every
// column of λ, so a converging lane is written out in the round it
// converges, before that round's sweep.
//
// Bit-identity contract (guarded by batch_equivalence_test and the epoch
// goldens): lane l performs the exact per-iteration sequence of
// BestResponseLearner::SolveInto on lane-l data — estimate, HJB, relaxed
// update, residual bookkeeping, FPK — with no cross-lane arithmetic, so
// its Equilibrium is bitwise equal to the scalar learner's; the reset,
// relaxed update, bookkeeping and epilogue are the scalar learner's own
// helpers (best_response.h). Lanes may converge at different iterations;
// a converged lane simply drops out of the lockstep loop (and, exactly
// like the scalar `break`, skips the final FPK), while a lane that
// exhausts max_iterations unconverged still runs the trailing FPK sweep
// of its last loop body.
//
// Failure routing: a lane that fails (divergence, injected fault, ...)
// records the scalar learner's error in its LaneJob::status and stops
// participating; the remaining lanes are unaffected. Its Equilibrium
// holds the loop's state at the failure (the last relaxed iterate and
// value surface, λ as the failing sweep left it, the last estimate), not
// the scalar learner's partial outputs: the epoch path re-runs failed
// lanes from scratch on the scalar recovery ladder (mfg_cp.cc), so
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
  // Per-lane solve state: the initial density, this round's mean-field
  // estimate, and the final refresh's estimator scratch.
  struct LaneScratch {
    numerics::Density1D initial;
    std::vector<MeanFieldQuantities> mean_field;
    MeanFieldEstimator::Workspace estimator;
  };

  // Long-lived scratch; all buffers re-shape in place so repeated solves
  // on a warmed grid shape never touch the heap (allocs_per_epoch=0).
  struct Workspace {
    std::vector<LaneScratch> lanes;
    MeanFieldBatchEstimator::Workspace estimator;
    HjbBatchSolver::Workspace hjb;  // value: this round's V; policy: x̂.
    FpkBatchSolver::Workspace fpk;  // lambda: λ under the iterate.
    numerics::BatchField policy;      // The relaxed iterate x.
    numerics::BatchField prev_value;  // V of the last relaxed round.
    std::vector<double> policy_change;  // Per-lane residuals of a round.
    std::vector<double> value_change;
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
  // are per lane; the call itself cannot fail globally. An inactive
  // lane's Equilibrium is not touched.
  void SolveInto(std::span<LaneJob> lanes, Workspace& ws) const;

 private:
  // Writes lane l's loop state into its Equilibrium (see the header
  // comment): the relaxed iterate, the last relaxed value surface, λ and
  // this round's estimate.
  void WriteLane(std::size_t l, Workspace& ws, Equilibrium& eq) const;

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

  // Per-lane learning controls, content ids and relaxation factors γ of
  // the bound params.
  std::vector<LearningParams> learning_;
  std::vector<std::size_t> content_id_;
  std::vector<double> relaxation_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_BEST_RESPONSE_BATCH_H_
