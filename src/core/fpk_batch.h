#ifndef MFGCP_CORE_FPK_BATCH_H_
#define MFGCP_CORE_FPK_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/fpk_solver.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"

// Content-batched counterpart of FpkSolver1D's explicit scheme (see
// hjb_batch.h for the batching model). Lane l runs the scalar forward
// sweep expression tree on its own density/policy, so active lanes
// reproduce FpkSolver1D::SolveInto bit-for-bit; validation and output
// shaping (BeginFpkSolve), the initial density (MakeInitialDensityInto),
// the CFL substeps and the per-node drift terms are the scalar solver's
// own functions.
//
// λ stays in the batch layout end to end: the workspace keeps every time
// node's [node][lane] rows, the drift of a time node is one vectorized
// pass over the policy slab, each substep is one fused pass over the rows
// (face flux, flux-divergence update and finiteness check), and the
// ClipAndNormalize guard runs lane-parallel
// (numerics::ClipAndNormalizeBatchInto, the scalar accumulation order per
// lane). Sweep() is the batch core: it reads the policy from a
// [time·node][lane] field and leaves λ in Workspace::lambda, where the
// lane-parallel mean-field estimator reads it (DensityRows) and the
// learner writes a lane out once it leaves its loop (WriteLane).
// SolveInto() is the per-content adapter: each lane's policy gathered
// into that layout, Sweep, each lane written to its FpkSolution.
//
// Only explicit stepping is batched: BindLane rejects a grid.implicit_fpk
// lane, and the epoch path solves implicit-FPK contents on the scalar
// block body. A lane that diverges records the scalar solver's error in
// its LaneIo::status and drops out of the batch.

namespace mfg::core {

class FpkBatchSolver {
 public:
  struct Workspace {
    // (nt + 1) · nq nodes: time node n's rows start at node n · nq. After
    // a sweep, a lane that was active and did not fail holds its
    // trajectory there (densities[n] of its output, bit for bit). Every
    // sweep rewrites every column, so a lane must be written out before
    // the next sweep on this workspace.
    numerics::BatchField lambda;
    numerics::BatchField velocity;
    // SolveInto's gather of the lanes' policies ([time·node][lane]).
    numerics::BatchField policy;
    std::vector<std::uint8_t> alive;
    // Double-wide masks, as in HjbBatchSolver::Workspace: the substep
    // update select and the divergence accumulator vectorize only when the
    // mask lanes match the double data width.
    std::vector<double> update;
    std::vector<double> bad;
    std::vector<double> left_flux;  // Runtime-width substep scratch.
    // Scratch for the lane-parallel ClipAndNormalizeBatchInto guard.
    std::vector<double> clip_mass;
    std::vector<std::uint8_t> clip_failed;
  };

  // Per-lane IO. Sweep() reads only `initial` (the other pointers may be
  // null); SolveInto() reads `policy` and writes *solution.
  struct LaneIo {
    const numerics::Density1D* initial = nullptr;
    const numerics::TimeField2D* policy = nullptr;
    FpkSolution* solution = nullptr;
    bool active = false;
    common::Status status;
  };

  FpkBatchSolver() = default;

  // See HjbBatchSolver::Reset/BindLane; identical contract, except that a
  // grid.implicit_fpk lane is rejected with InvalidArgument.
  void Reset(std::size_t num_lanes);
  common::Status BindLane(std::size_t lane, const MfgParams& params);

  std::size_t num_lanes() const { return num_lanes_; }

  // Makes lane `lane`'s initial density (the scalar
  // MakeInitialDensityInto).
  common::Status MakeInitialDensityInto(std::size_t lane,
                                        numerics::Density1D& out) const;

  // The batch core: steps every active lane from its initial density under
  // `policy` ((nt + 1)·nq rows, [time·node][lane]) into ws.lambda.
  // lanes.size() must equal num_lanes(); statuses are per lane.
  void Sweep(std::span<LaneIo> lanes, const numerics::BatchField& policy,
             Workspace& ws) const;

  // Gather, Sweep, and each active lane that succeeded written to
  // *solution.
  void SolveInto(std::span<LaneIo> lanes, Workspace& ws) const;

  // Writes lane `lane`'s trajectory from the last sweep on `ws` into `out`
  // (shaped by ShapeFpkSolution; densities[0] = `initial`).
  void WriteLane(std::size_t lane, const Workspace& ws,
                 const numerics::Density1D& initial, FpkSolution& out) const;

  // Time node n's density rows from the last SolveInto on `ws`: nq ×
  // num_lanes() samples, [node][lane] (see Workspace::lambda).
  std::span<const double> DensityRows(const Workspace& ws,
                                      std::size_t n) const;

 private:
  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;
  std::size_t nt_ = 0;

  // Steps the lanes flagged in ws.alive (set by the caller, which also
  // counts the sweeps) under the [time·node][lane] policy at `policy`.
  void Run(std::span<LaneIo> lanes, const double* policy,
           Workspace& ws) const;

  std::vector<MfgParams> params_;
  std::vector<numerics::Grid1D> grids_;

  numerics::BatchField neg_w1_avail_;
  // MfgParams::DriftTermsAt(n) per [time node][lane], tabulated at bind:
  // the terms hold a pow() and change only with the params.
  numerics::BatchField retention_;
  numerics::BatchField discard_;

  std::vector<double> content_size_;
  std::vector<double> dx_;
  std::vector<std::size_t> substeps_;
  // Per-lane reciprocals of the per-element divisors, the same expressions
  // the scalar FpkSolver1D::SolveInto hoists once per solve (bit-identity;
  // the substep loop is division-throughput-bound otherwise).
  std::vector<double> d_over_dx_;       // diffusion / dx.
  std::vector<double> dt_sub_over_dx_;  // dt_sub / dx.
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_FPK_BATCH_H_
