#ifndef MFGCP_CORE_MEAN_FIELD_ESTIMATOR_H_
#define MFGCP_CORE_MEAN_FIELD_ESTIMATOR_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/mfg_params.h"
#include "econ/pricing.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"
#include "numerics/grid.h"
#include "numerics/quadrature.h"

// The mean-field estimator (§IV-B module 1): converts the mean-field
// density λ(t, ·) and the candidate policy x(t, ·) into the economic
// quantities a generic EDP needs — without any peer communication:
//
//   mean caching rate  ⟨x⟩(t) = ∫ λ x dq
//   price              p(t)   = p̂ − η₁ (Q_k − q̄(t))          (Eq. 17,
//                         supply = cached stock; see econ/pricing.h)
//   mean peer state    q̄₋(t)  = ∫ q λ dq                      (Eq. 18)
//   transfer size      Δq̄(t)  = |∫_{q≤αQ} q λ dq − ∫_{q>αQ} q λ dq|
//   sharing benefit    Φ̄²(t)  = p̄ Δq̄ ((M − M'_k)/M_k − 1)
//
// with M_k/M ≈ mass(q ≤ αQ) (EDPs that cached enough to share) and
// M'_k/M ≈ mass(q > αQ)² (both the EDP and its candidate peer lack the
// content → case 3). Note the algebraic collapse: with s = mass(q > αQ),
// (1 − s²)/(1 − s) − 1 = s, so Φ̄² = p̄ Δq̄ s away from the degenerate
// m_q → 0 corner (which is guarded).

namespace mfg::core {

struct MeanFieldQuantities {
  double mean_caching_rate = 0.0;  // ⟨x⟩.
  double price = 0.0;              // p_k(t).
  double mean_peer_remaining = 0.0;  // q̄₋,k(t).
  double delta_q = 0.0;            // Δq̄(t).
  double sharer_fraction = 0.0;    // M_k/M estimate.
  double case3_fraction = 0.0;     // M'_k/M estimate.
  double sharing_benefit = 0.0;    // Φ̄²(t).
};

class MeanFieldEstimator {
 public:
  // Everything an estimate reads besides the density and the policy,
  // fixed when the estimator is bound: the params' q-grid, the quadrature
  // bounds of the α·Q_k split on it, and the constants of the price and
  // sharing-benefit formulas. MeanFieldBatchEstimator copies it per lane,
  // so the scalar and the lane-parallel paths read one definition.
  struct Table {
    numerics::Grid1D grid;
    numerics::IntervalBounds sharer;  // [lo, α·Q_k]: EDPs able to share.
    numerics::IntervalBounds needer;  // [α·Q_k, hi].
    econ::PricingModel pricing;
    double content_size = 0.0;
    double sharing_price = 0.0;
    bool sharing_enabled = true;
  };

  // Scratch buffer for the q-weighted density samples (shared by the mean
  // and the two partial moments); reuse across Estimate calls keeps the
  // per-time-node estimation allocation-free.
  struct Workspace {
    std::vector<double> weighted;
  };

  // Fails on invalid params (delegates to MfgParams::Validate()).
  static common::StatusOr<MeanFieldEstimator> Create(const MfgParams& params);

  // Re-parameterizes the estimator in place (see HjbSolver1D::Rebind);
  // allocation-free.
  common::Status Rebind(const MfgParams& params);

  // Computes all quantities for one time slice. `density` lives on the
  // params' q-grid (MfgParams::MakeQGrid) and `policy_slice` is x(t, ·)
  // sampled on it; either mismatch fails with InvalidArgument.
  common::StatusOr<MeanFieldQuantities> Estimate(
      const numerics::Density1D& density,
      const std::vector<double>& policy_slice) const;

  // In-place variant used by the best-response hot loop; accepts flat
  // policy rows and performs no allocation once `workspace` has warmed up.
  common::Status EstimateInto(const numerics::Density1D& density,
                              std::span<const double> policy_slice,
                              Workspace& workspace,
                              MeanFieldQuantities& out) const;

  const Table& table() const { return table_; }

 private:
  explicit MeanFieldEstimator(const Table& table) : table_(table) {}

  Table table_;
};

// Lane-parallel MeanFieldEstimator::EstimateInto: one call estimates K
// contents (the lanes) at one time node, reading the density rows in the
// [node][lane] layout the batched FPK keeps per time node
// (FpkBatchSolver::DensityRows) and the policy rows in the same layout
// (the batched learner's relaxed iterate), so nothing is gathered per
// lane. All five
// quadratures of every lane run in a single pass over the nodes; the
// partial sums over the α·Q_k split are masked per lane by the cells of
// the lane's own bounds. Lane l performs the scalar estimator's operations
// in their exact order on lane-l data, from the lane's bound Table, so its
// MeanFieldQuantities are bitwise equal to EstimateInto on the lane's own
// Density1D and policy row.
class MeanFieldBatchEstimator {
 public:
  struct Workspace {
    std::vector<double> sums;  // Per-lane quadrature accumulators.
  };

  struct LaneIo {
    MeanFieldQuantities* out = nullptr;
    bool active = false;
  };

  MeanFieldBatchEstimator() = default;

  // Declares the batch width; see HjbBatchSolver::Reset/BindLane. All
  // bound lanes must share the q-grid size.
  void Reset(std::size_t num_lanes);
  common::Status BindLane(std::size_t lane,
                          const MeanFieldEstimator& estimator);

  std::size_t num_lanes() const { return num_lanes_; }

  // `density` and `policy` (x(t, ·) on each lane's q-grid) hold nq ×
  // num_lanes() samples, [node][lane]. Writes *lanes[l].out for every
  // active lane (which must be bound) and counts one estimate per active
  // lane. Inactive lanes' columns may hold anything; they never reach an
  // output.
  void EstimateInto(std::span<const double> density,
                    std::span<const double> policy,
                    std::span<const LaneIo> lanes, Workspace& ws) const;

 private:
  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;

  std::vector<MeanFieldEstimator::Table> tables_;
  std::vector<double> dx_;
  // SoA tables: node coordinates q_i, and 1.0 where cell [q_i, q_{i+1}]
  // is a full cell of the lane's sharer / needer interval, else 0.0.
  numerics::BatchField node_q_;
  numerics::BatchField sharer_cell_;
  numerics::BatchField needer_cell_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_MEAN_FIELD_ESTIMATOR_H_
