#include "core/mean_field_estimator.h"

#include <algorithm>
#include <cmath>

#include "numerics/simd_support.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

using Shape = numerics::IntervalBounds::Shape;

common::StatusOr<MeanFieldEstimator::Table> MakeTable(
    const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MeanFieldEstimator::Table table;
  MFG_ASSIGN_OR_RETURN(table.pricing,
                       econ::PricingModel::Create(params.pricing));
  MFG_ASSIGN_OR_RETURN(table.grid, params.MakeQGrid());
  const double threshold = params.case_alpha * params.content_size;
  table.sharer =
      numerics::ResolveInterval(table.grid, table.grid.lo(), threshold);
  table.needer =
      numerics::ResolveInterval(table.grid, threshold, table.grid.hi());
  table.content_size = params.content_size;
  table.sharing_price = params.utility.sharing_price;
  table.sharing_enabled = params.sharing_enabled;
  return table;
}

// Everything downstream of the five quadratures — ⟨x⟩ = ∫λx, ∫qλ, the two
// partial first moments of the α·Q_k split and the sharer mass — shared by
// the scalar and the lane-parallel estimate.
void FinishEstimate(const MeanFieldEstimator::Table& table, double rate,
                    double peer, double sharer_moment, double needer_moment,
                    double sharer_mass, MeanFieldQuantities& out) {
  // Numerical quadrature can produce tiny negatives near empty regions.
  out.mean_caching_rate = std::clamp(rate, 0.0, 1.0);
  out.mean_peer_remaining = peer;
  out.price = table.pricing.MeanFieldPrice(peer, table.content_size);
  out.delta_q = std::fabs(sharer_moment - needer_moment);
  out.sharer_fraction = std::clamp(sharer_mass, 0.0, 1.0);
  const double lacking = 1.0 - out.sharer_fraction;
  out.case3_fraction = lacking * lacking;

  // Φ̄² = p̄ Δq̄ ((1 − M'/M) / (M_k/M) − 1); guard the empty-sharer corner
  // (nobody can share -> no sharing benefit).
  if (out.sharer_fraction > 1e-9) {
    const double ratio = (1.0 - out.case3_fraction) / out.sharer_fraction;
    out.sharing_benefit =
        table.sharing_price * out.delta_q * std::max(ratio - 1.0, 0.0);
  } else {
    out.sharing_benefit = 0.0;
  }
  if (!table.sharing_enabled) out.sharing_benefit = 0.0;
}

// Rows of MeanFieldBatchEstimator::Workspace::sums, m doubles each.
enum SumRow : std::size_t {
  kRate = 0,          // ∫ λ x: the trapezoid sum before the ·dx.
  kPeer = 1,          // ∫ q λ: likewise.
  kSharerMoment = 2,  // In: the interval head. Out: head + full cells.
  kNeederMoment = 3,
  kSharerMass = 4,
  kCarryW = 5,        // Runtime-width scratch: q λ at the previous node.
  kCarryLambda = 6,   // λ at the previous node.
  kSumRows = 7,
};

// One cell [q_i, q_{i+1}] of the three interval sums: q·λ enters both
// moments and λ the sharer mass, each only where the lane's cell mask is
// set (a select, so a masked-out sum keeps its bits).
__attribute__((always_inline)) inline void AddCell(
    double sharer_mask, double needer_mask, double w0, double w1, double l0,
    double l1, double dx, double& sm, double& nm, double& ms) {
  const double cell_w = numerics::IntervalCell(w0, w1, dx);
  const double cell_l = numerics::IntervalCell(l0, l1, dx);
  sm = numerics::LaneSelect(sharer_mask, sm + cell_w, sm);
  nm = numerics::LaneSelect(needer_mask, nm + cell_w, nm);
  ms = numerics::LaneSelect(sharer_mask, ms + cell_l, ms);
}

// The five quadratures of every lane as one pass over the nodes: the two
// full trapezoid sums (0.5·(f₀ + fₙ₋₁), then the interior nodes in order,
// as Trapezoid/TrapezoidProduct) and the three interval sums (the head
// the caller seeded, then each full cell in order, as
// TrapezoidOnInterval), a cell entering a lane's interval sum only where
// that lane's mask is set, so each lane sees exactly the scalar sequence
// of additions. q·λ at node i is computed once and carried to the next
// cell.
//
// M is the compile-time lane count (0 = runtime `mm`), dispatched like
// hjb_batch.cc's FusedHjbSubstep: with M fixed the
// accumulators and the carried node live in registers; the runtime path
// keeps them in `sums`. The lane loops stay rolled for the loop
// vectorizer (see fpk_batch.cc).
template <std::size_t M>
__attribute__((always_inline)) inline void QuadratureSweepImpl(
    std::size_t nq, std::size_t mm, const double* lam, const double* pol,
    const double* q, const double* sharer_cell, const double* needer_cell,
    const double* dx, double* __restrict sums) {
  const std::size_t m = M ? M : mm;
  constexpr std::size_t kStatic = M ? M : 1;
  double rate_s[kStatic], peer_s[kStatic], sm_s[kStatic], nm_s[kStatic],
      ms_s[kStatic], w_s[kStatic], l_s[kStatic];
  double* rate = M ? rate_s : sums + kRate * m;
  double* peer = M ? peer_s : sums + kPeer * m;
  double* sm = M ? sm_s : sums + kSharerMoment * m;
  double* nm = M ? nm_s : sums + kNeederMoment * m;
  double* ms = M ? ms_s : sums + kSharerMass * m;
  double* w_prev = M ? w_s : sums + kCarryW * m;
  double* l_prev = M ? l_s : sums + kCarryLambda * m;

  // Boundary nodes of the full sums, then cell 0.
  const std::size_t last = (nq - 1) * m;
#pragma GCC unroll 1
  for (std::size_t l = 0; l < m; ++l) {
    if constexpr (M != 0) {
      sm[l] = sums[kSharerMoment * m + l];
      nm[l] = sums[kNeederMoment * m + l];
      ms[l] = sums[kSharerMass * m + l];
    }
    const double w0 = q[l] * lam[l];
    const double wn = q[last + l] * lam[last + l];
    rate[l] = 0.5 * (lam[l] * pol[l] + lam[last + l] * pol[last + l]);
    peer[l] = 0.5 * (w0 + wn);
    const double w1 = q[m + l] * lam[m + l];
    AddCell(sharer_cell[l], needer_cell[l], w0, w1, lam[l], lam[m + l], dx[l],
            sm[l], nm[l], ms[l]);
    w_prev[l] = w1;
    l_prev[l] = lam[m + l];
  }
  // Interior node i of the full sums, then cell i.
  for (std::size_t i = 1; i + 1 < nq; ++i) {
    const std::size_t row = i * m;
    const std::size_t next = row + m;
#pragma GCC unroll 1
    for (std::size_t l = 0; l < m; ++l) {
      rate[l] += lam[row + l] * pol[row + l];
      peer[l] += w_prev[l];
      const double w_next = q[next + l] * lam[next + l];
      AddCell(sharer_cell[row + l], needer_cell[row + l], w_prev[l], w_next,
              l_prev[l], lam[next + l], dx[l], sm[l], nm[l], ms[l]);
      w_prev[l] = w_next;
      l_prev[l] = lam[next + l];
    }
  }
  if constexpr (M != 0) {
#pragma GCC unroll 1
    for (std::size_t l = 0; l < m; ++l) {
      sums[kRate * m + l] = rate[l];
      sums[kPeer * m + l] = peer[l];
      sums[kSharerMoment * m + l] = sm[l];
      sums[kNeederMoment * m + l] = nm[l];
      sums[kSharerMass * m + l] = ms[l];
    }
  }
}

MFGCP_BATCH_TARGET_CLONES
void QuadratureSweep(std::size_t nq, std::size_t m, const double* lam,
                     const double* pol, const double* q,
                     const double* sharer_cell, const double* needer_cell,
                     const double* dx, double* __restrict sums) {
#define MFGCP_QUADRATURE_SWEEP(M) \
  QuadratureSweepImpl<M>(nq, m, lam, pol, q, sharer_cell, needer_cell, dx, sums)
  MFGCP_DISPATCH_LANE_WIDTH(m, MFGCP_QUADRATURE_SWEEP)
#undef MFGCP_QUADRATURE_SWEEP
}

double FullCellMask(const numerics::IntervalBounds& bounds, std::size_t i) {
  return bounds.shape == Shape::kCells && bounds.first <= i &&
                 i < bounds.last
             ? 1.0
             : 0.0;
}

}  // namespace

common::StatusOr<MeanFieldEstimator> MeanFieldEstimator::Create(
    const MfgParams& params) {
  MFG_ASSIGN_OR_RETURN(Table table, MakeTable(params));
  return MeanFieldEstimator(table);
}

common::Status MeanFieldEstimator::Rebind(const MfgParams& params) {
  MFG_ASSIGN_OR_RETURN(table_, MakeTable(params));
  return common::Status::Ok();
}

common::StatusOr<MeanFieldQuantities> MeanFieldEstimator::Estimate(
    const numerics::Density1D& density,
    const std::vector<double>& policy_slice) const {
  Workspace workspace;
  MeanFieldQuantities out;
  MFG_RETURN_IF_ERROR(EstimateInto(
      density, std::span<const double>(policy_slice), workspace, out));
  return out;
}

common::Status MeanFieldEstimator::EstimateInto(
    const numerics::Density1D& density, std::span<const double> policy_slice,
    Workspace& workspace, MeanFieldQuantities& out) const {
  // Counter only: this runs once per time node inside the best-response
  // loop, too hot for a trace span per call.
  MFG_OBS_COUNT("core.mean_field.estimates", 1);
  const numerics::Grid1D& grid = density.grid();
  if (!(grid == table_.grid)) {
    return common::Status::InvalidArgument(
        "density grid does not match the estimator's q-grid");
  }
  if (policy_slice.size() != grid.size()) {
    return common::Status::InvalidArgument(
        "policy slice size does not match the density grid");
  }
  const std::span<const double> values(density.values());

  // Also checks values.size() for the unchecked interval sums below.
  MFG_ASSIGN_OR_RETURN(const double rate,
                       numerics::TrapezoidProduct(grid, values, policy_slice));

  // q-weighted samples back both the full first moment (q̄₋) and the two
  // partial moments of the Δq̄ split — computed once per slice.
  std::vector<double>& weighted = workspace.weighted;
  weighted.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    weighted[i] = grid.x(i) * values[i];
  }
  const std::span<const double> w(weighted);
  MFG_ASSIGN_OR_RETURN(const double peer, numerics::Trapezoid(grid, w));
  FinishEstimate(table_, rate, peer,
                 numerics::TrapezoidOnInterval(table_.sharer, w),
                 numerics::TrapezoidOnInterval(table_.needer, w),
                 numerics::TrapezoidOnInterval(table_.sharer, values), out);
  return common::Status::Ok();
}

void MeanFieldBatchEstimator::Reset(std::size_t num_lanes) {
  num_lanes_ = num_lanes;
  bound_lanes_ = 0;
  tables_.resize(num_lanes);
  dx_.resize(num_lanes);
}

common::Status MeanFieldBatchEstimator::BindLane(
    std::size_t lane, const MeanFieldEstimator& estimator) {
  if (lane >= num_lanes_) {
    return common::Status::InvalidArgument("lane out of range");
  }
  const MeanFieldEstimator::Table& table = estimator.table();
  const std::size_t nq = table.grid.size();
  if (bound_lanes_ == 0) {
    nq_ = nq;
    node_q_.Assign(nq, num_lanes_, 0.0);
    sharer_cell_.Assign(nq - 1, num_lanes_, 0.0);
    needer_cell_.Assign(nq - 1, num_lanes_, 0.0);
  } else if (nq != nq_) {
    return common::Status::InvalidArgument(
        "batch lanes must share the grid shape");
  }
  ++bound_lanes_;
  tables_[lane] = table;
  dx_[lane] = table.grid.dx();
  for (std::size_t i = 0; i < nq; ++i) node_q_.at(i, lane) = table.grid.x(i);
  for (std::size_t i = 0; i + 1 < nq; ++i) {
    sharer_cell_.at(i, lane) = FullCellMask(table.sharer, i);
    needer_cell_.at(i, lane) = FullCellMask(table.needer, i);
  }
  return common::Status::Ok();
}

void MeanFieldBatchEstimator::EstimateInto(std::span<const double> density,
                                           std::span<const double> policy,
                                           std::span<const LaneIo> lanes,
                                           Workspace& ws) const {
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  ws.sums.resize(kSumRows * m);
  const double* lam = density.data();
  const double* pol = policy.data();
  const double* q = node_q_.data();
  double* sums = ws.sums.data();

  // Per active lane: the heads of its three interval sums (the partial
  // cell at each interval's left end, which the sweep extends cell by
  // cell).
  [[maybe_unused]] std::size_t active = 0;
  for (std::size_t l = 0; l < m; ++l) {
    sums[kSharerMoment * m + l] = 0.0;
    sums[kNeederMoment * m + l] = 0.0;
    sums[kSharerMass * m + l] = 0.0;
    if (!lanes[l].active) continue;
    ++active;
    const MeanFieldEstimator::Table& table = tables_[l];
    const auto lam_at = [lam, m, l](std::size_t i) { return lam[i * m + l]; };
    const auto w_at = [lam, q, m, l](std::size_t i) {
      return q[i * m + l] * lam[i * m + l];
    };
    if (table.sharer.shape == Shape::kCells) {
      sums[kSharerMoment * m + l] = numerics::IntervalHead(table.sharer, w_at);
      sums[kSharerMass * m + l] = numerics::IntervalHead(table.sharer, lam_at);
    }
    if (table.needer.shape == Shape::kCells) {
      sums[kNeederMoment * m + l] = numerics::IntervalHead(table.needer, w_at);
    }
  }
  MFG_OBS_COUNT("core.mean_field.estimates", active);

  QuadratureSweep(nq, m, lam, pol, q, sharer_cell_.data(),
                  needer_cell_.data(), dx_.data(), sums);

  for (std::size_t l = 0; l < m; ++l) {
    if (!lanes[l].active) continue;
    const MeanFieldEstimator::Table& table = tables_[l];
    const auto lam_at = [lam, m, l](std::size_t i) { return lam[i * m + l]; };
    const auto w_at = [lam, q, m, l](std::size_t i) {
      return q[i * m + l] * lam[i * m + l];
    };
    FinishEstimate(
        table, sums[kRate * m + l] * dx_[l], sums[kPeer * m + l] * dx_[l],
        numerics::IntervalTail(table.sharer, sums[kSharerMoment * m + l],
                               w_at),
        numerics::IntervalTail(table.needer, sums[kNeederMoment * m + l],
                               w_at),
        numerics::IntervalTail(table.sharer, sums[kSharerMass * m + l],
                               lam_at),
        *lanes[l].out);
  }
}

}  // namespace mfg::core
