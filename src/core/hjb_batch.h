#ifndef MFGCP_CORE_HJB_BATCH_H_
#define MFGCP_CORE_HJB_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/hjb_solver.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/grid.h"

// Content-batched counterpart of HjbSolver1D: K independent contents (the
// lanes) run the backward sweep in lockstep over a structure-of-arrays
// [node][lane] state, so the per-node inner loops are unit-stride across
// lanes and vectorize.
//
// Sweep() is the batch core: it leaves V and x* of every time node in the
// workspace, in the [time·node][lane] layout (numerics/batch_field.h), for
// BatchBestResponseLearner to relax in place. Each time node's value slab
// starts as a copy of node n+1's and is stepped in place; its policy slab
// is one fused gradient + Theorem-1 pass over it. SolveInto() is the
// per-content adapter: Sweep, then each lane scattered into its
// HjbSolution.
//
// Bit-identity contract: lane l executes the exact scalar expression tree
// of HjbSolver1D::SolveInto on lane-l data — same operations, same order,
// no cross-lane arithmetic — so an active lane's HjbSolution is bitwise
// equal to the scalar solver's (guarded by batch_equivalence_test and the
// epoch goldens). Outside the lane loops the batch calls the scalar code
// itself — CheckHjbInputs, FillHjbTables, MfgParams::CflSubstepsFor,
// DriftTermsAt and RequestsAt, econ::Logistic — so those steps match by
// construction. Two scalar-side identities make the batch layout cheap:
//
//  * The case probabilities are separable, p1 = f(αQ − q_i),
//    p2/p3 = f(q_i − αQ)·f(±(peer_n − αQ)). The q-only factors are
//    time-invariant and tabulated per (node, lane) at BindLane, like every
//    params-only term of a time node (drift offset, request count); the
//    peer-only factors are two logistics per (time node, lane). The fold
//    loop that dominated the scalar profile then carries no exp() at all,
//    and reusing an identical subexpression cannot change its bits.
//  * Per-lane CFL substep counts may differ (content size enters dx and
//    the drift bound); lanes whose substeps are exhausted keep computing
//    harmlessly but their value update is masked out by a per-lane select,
//    never by multiply-by-zero (NaN·0 would poison the lane).
//
// A lane that diverges (non-finite value surface, exactly the scalar
// check) is recorded in its LaneIo::status and drops out of the batch; the
// remaining lanes are unaffected. The caller (BatchBestResponseLearner)
// routes such lanes onto the scalar recovery ladder.

namespace mfg::core {

class HjbBatchSolver {
 public:
  // Assign()/Reshape() reuse keeps repeated solves allocation-free
  // (allocs_per_epoch=0).
  struct Workspace {
    // Sweep's output: V(t_n, q_i) and x*(t_n, q_i) at row n·nq + i,
    // (nt + 1)·nq rows. Columns of lanes that were inactive or failed hold
    // unspecified values.
    numerics::BatchField value;
    numerics::BatchField policy;
    // Per-(node, lane) fold of every control-independent utility term
    // (trading income, sharing benefit, η₂·request-service delay, sharing
    // cost), recomputed once per time node — the substep loop streams this
    // one table (see HjbSolver1D::Workspace::base).
    numerics::BatchField base;
    // Per-lane per-time-node folds (length lanes). The sharing toggle is
    // pre-folded into two factors so the node loop carries no branch:
    // p2 = fq·p2_factor, p3 = fq·fpeer_gt + fq·p2_extra (see the bind-time
    // gated_share_price_ for the sharing cost). Each gated factor is 0.0
    // on the disabled side, and every gated multiplicand is finite and
    // non-negative, so the products reproduce the scalar branches' bits.
    std::vector<double> p2_factor;    // sharing ? f(αQ − peer_n) : 0.
    std::vector<double> fpeer_gt;     // f(peer_n − αQ).
    std::vector<double> p2_extra;     // sharing ? 0 : f(αQ − peer_n).
    std::vector<double> share_n;
    std::vector<double> served_peer;
    std::vector<double> price;
    std::vector<double> peer;
    std::vector<std::uint8_t> alive;  // Lane still advancing.
    // Per-substep value-update mask and per-lane divergence accumulator,
    // kept as doubles (0.0 / nonzero): double-wide select masks vectorize
    // where a byte-mask blend against double data does not.
    std::vector<double> update;
    std::vector<double> bad;
    // Rotation scratch for the runtime-lane-count fused substep (three old
    // value rows plus the carried d²v row, 4·lanes doubles); the
    // compile-time lane specializations keep these in local arrays.
    std::vector<double> rot;
  };

  // Per-lane solve IO. Inactive lanes are skipped entirely; an active
  // lane's status reports the same error the scalar solver would have
  // returned. Sweep() reads only mean_field (solution may be null);
  // SolveInto() also writes *solution.
  struct LaneIo {
    const std::vector<MeanFieldQuantities>* mean_field = nullptr;
    HjbSolution* solution = nullptr;
    bool active = false;
    common::Status status;
  };

  HjbBatchSolver() = default;

  // Declares the batch width; lanes [0, num_lanes) must be bound before
  // SolveInto. Keeps table capacity across calls.
  void Reset(std::size_t num_lanes);

  // Validates `params` and tabulates lane `lane` with the scalar solver's
  // FillHjbTables and CflSubstepsFor. All bound lanes must share the grid
  // shape (num_q_nodes / num_time_steps) — the epoch path guarantees this
  // since every content derives from the same base_params.
  common::Status BindLane(std::size_t lane, const MfgParams& params);

  std::size_t num_lanes() const { return num_lanes_; }

  // The batch core: runs the backward sweep for every active lane into
  // ws.value / ws.policy. lanes.size() must equal num_lanes(). Statuses
  // are written per lane; the call itself cannot fail globally.
  void Sweep(std::span<LaneIo> lanes, Workspace& ws) const;

  // Sweep, then each active lane that succeeded written to *solution.
  void SolveInto(std::span<LaneIo> lanes, Workspace& ws) const;

 private:
  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;
  std::size_t nt_ = 0;

  std::vector<MfgParams> params_;
  std::vector<numerics::Grid1D> grids_;

  // Bind scratch: lane `lane`'s HjbTables before the scatter below.
  HjbTables tables_;

  // Per-(node, lane) tables, [node][lane] layout.
  numerics::BatchField q_coords_;
  numerics::BatchField avail_;
  numerics::BatchField p1_;          // f(αQ − q_i): the case-1 probability.
  numerics::BatchField fq_gt_;       // f(q_i − αQ): shared factor of p2/p3.
  numerics::BatchField served_own_;  // max(Q − q_i, 0).
  numerics::BatchField q_pos_;       // max(q_i, 0).
  numerics::BatchField cs_nw_;       // Q_k·(−w1)·a(q_i): drift x-gain.

  // Per-(time node, lane) params-only terms, nt rows: Q_k·(retention_n −
  // discard_n) from MfgParams::DriftTermsAt (a pow() per node) and
  // RequestsAt(n).
  numerics::BatchField cs_rd_;
  numerics::BatchField num_requests_;

  // Per-lane constants; the HjbTables scalars and the FD reciprocals
  // (1/dx, 1/(2dx), 1/dx² — the scalar kernels' per-call hoists).
  std::vector<double> opt_k1_;
  std::vector<double> opt_k2_;
  std::vector<double> content_size_;
  std::vector<double> eta2_;
  std::vector<double> w4_;
  std::vector<double> w5_;
  std::vector<double> gated_share_price_;  // sharing ? sharing_price : 0.
  std::vector<double> threshold_;   // αQ.
  std::vector<double> sharpness_;   // Logistic steepness.
  std::vector<double> dt_sub_;
  std::vector<double> diffusion_;
  std::vector<std::size_t> substeps_;
  std::vector<std::uint8_t> sharing_;
  std::vector<double> inv_2w5_;
  std::vector<double> k_delay_;
  std::vector<double> inv_edge_;
  std::vector<double> inv_ond_;
  std::vector<double> inv_dx_;
  std::vector<double> inv_2dx_;
  std::vector<double> inv_dx2_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_HJB_BATCH_H_
