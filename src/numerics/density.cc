#include "numerics/density.h"

#include <cmath>
#include <numbers>

#include "numerics/quadrature.h"
#include "numerics/simd_support.h"

namespace mfg::numerics {
namespace {

// The SoA transcription of ClipAndNormalize + Normalize: same clip
// predicate, the trapezoid accumulation in Trapezoid()'s exact order
// (0.5·(f₀+fₙ₋₁), then the interior sum, then ·dx), and a per-element
// division by the mass — so each lane reproduces the scalar result
// bit-for-bit. The clip is folded into the mass pass. M is the
// compile-time lane count (0 = runtime `mm`, accumulating in `mass`), as
// in the fused solver substeps (hjb_batch.cc); the lane loops are kept
// rolled so the loop vectorizer, not straight-line SLP, maps them to one
// vector per row.
template <std::size_t M>
__attribute__((always_inline)) inline void ClipAndNormalizeImpl(
    std::size_t nq, std::size_t mm, const double* dx, double* __restrict v,
    double* __restrict mass, std::uint8_t* __restrict failed) {
  const std::size_t m = M ? M : mm;
  constexpr std::size_t kStatic = M ? M : 1;
  double acc_s[kStatic];
  double* acc = M ? acc_s : mass;
  const std::size_t last = (nq - 1) * m;
#pragma GCC unroll 1
  for (std::size_t l = 0; l < m; ++l) {
    v[l] = v[l] > 0.0 ? v[l] : 0.0;  // Also clears NaN.
    v[last + l] = v[last + l] > 0.0 ? v[last + l] : 0.0;
    acc[l] = 0.5 * (v[l] + v[last + l]);
  }
  for (std::size_t i = 1; i + 1 < nq; ++i) {
    const std::size_t row = i * m;
#pragma GCC unroll 1
    for (std::size_t l = 0; l < m; ++l) {
      const double clipped = v[row + l] > 0.0 ? v[row + l] : 0.0;
      v[row + l] = clipped;
      acc[l] += clipped;
    }
  }
#pragma GCC unroll 1
  for (std::size_t l = 0; l < m; ++l) {
    const double lane_mass = acc[l] * dx[l];
    failed[l] = !(lane_mass > 1e-300) ? 1 : 0;
    // A failed lane divides by 1.0, which keeps its clipped samples
    // exactly (the scalar failure path returns before dividing); the
    // division loop then needs no per-lane select.
    mass[l] = failed[l] != 0 ? 1.0 : lane_mass;
  }
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t row = i * m;
#pragma GCC unroll 1
    for (std::size_t l = 0; l < m; ++l) {
      // Division (not reciprocal-multiply), as in Normalize().
      v[row + l] /= mass[l];
    }
  }
}

// AVX2/AVX-512 clones behind runtime dispatch (see fpk_batch.cc).
MFGCP_BATCH_TARGET_CLONES
void ClipAndNormalizeLanes(std::size_t nq, std::size_t m, const double* dx,
                           double* __restrict v, double* __restrict mass,
                           std::uint8_t* __restrict failed) {
  switch (m) {
    case 1:
      ClipAndNormalizeImpl<1>(nq, m, dx, v, mass, failed);
      break;
    case 2:
      ClipAndNormalizeImpl<2>(nq, m, dx, v, mass, failed);
      break;
    case 4:
      ClipAndNormalizeImpl<4>(nq, m, dx, v, mass, failed);
      break;
    case 8:
      ClipAndNormalizeImpl<8>(nq, m, dx, v, mass, failed);
      break;
    default:
      ClipAndNormalizeImpl<0>(nq, m, dx, v, mass, failed);
      break;
  }
}

}  // namespace

double GaussianPdf(double x, double mean, double stddev) {
  const double z = (x - mean) / stddev;
  return std::exp(-0.5 * z * z) /
         (stddev * std::sqrt(2.0 * std::numbers::pi));
}

common::StatusOr<Density1D> Density1D::Uniform(const Grid1D& grid) {
  const double height = 1.0 / (grid.hi() - grid.lo());
  return Density1D(grid, std::vector<double>(grid.size(), height));
}

common::StatusOr<Density1D> Density1D::TruncatedGaussian(const Grid1D& grid,
                                                         double mean,
                                                         double stddev) {
  Density1D density;
  MFG_RETURN_IF_ERROR(TruncatedGaussianInto(grid, mean, stddev, density));
  return density;
}

common::Status Density1D::TruncatedGaussianInto(const Grid1D& grid,
                                                double mean, double stddev,
                                                Density1D& out) {
  if (stddev <= 0.0) {
    return common::Status::InvalidArgument("stddev must be positive");
  }
  out.grid_ = grid;
  out.values_.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out.values_[i] = GaussianPdf(grid.x(i), mean, stddev);
  }
  common::Status normalized = out.Normalize();
  if (!normalized.ok()) {
    return common::Status::InvalidArgument(
        "Gaussian mass underflows on the grid span (mean too far outside)");
  }
  return common::Status::Ok();
}

common::StatusOr<Density1D> Density1D::FromSamplesUnchecked(
    const Grid1D& grid, std::vector<double> values) {
  if (values.size() != grid.size()) {
    return common::Status::InvalidArgument("values/grid size mismatch");
  }
  return Density1D(grid, std::move(values));
}

double Density1D::Mass() const {
  return Trapezoid(grid_, values_).value();
}

double Density1D::Mean() const {
  std::vector<double> weighted(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    weighted[i] = grid_.x(i) * values_[i];
  }
  return Trapezoid(grid_, weighted).value();
}

double Density1D::Variance() const {
  const double mean = Mean();
  std::vector<double> weighted(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const double d = grid_.x(i) - mean;
    weighted[i] = d * d * values_[i];
  }
  return Trapezoid(grid_, weighted).value();
}

double Density1D::MassOnInterval(double a, double b) const {
  return TrapezoidOnInterval(grid_, values_, a, b).value();
}

double Density1D::MeanOnInterval(double a, double b) const {
  std::vector<double> weighted(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    weighted[i] = grid_.x(i) * values_[i];
  }
  return TrapezoidOnInterval(grid_, weighted, a, b).value();
}

common::Status Density1D::Normalize() {
  const double mass = Mass();
  if (!(mass > 1e-300)) {
    return common::Status::NumericalError("density mass is ~0");
  }
  for (double& v : values_) v /= mass;
  return common::Status::Ok();
}

common::Status Density1D::ClipAndNormalize() {
  for (double& v : values_) {
    if (!(v > 0.0)) v = 0.0;  // Also clears NaN.
  }
  return Normalize();
}

common::StatusOr<double> Density1D::L1Distance(const Density1D& other) const {
  if (!(grid_ == other.grid_)) {
    return common::Status::InvalidArgument(
        "L1 distance requires identical grids");
  }
  std::vector<double> diff(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    diff[i] = std::fabs(values_[i] - other.values_[i]);
  }
  return Trapezoid(grid_, diff);
}

void ClipAndNormalizeBatchInto(std::span<const double> dx,
                               std::span<double> values,
                               std::span<double> mass,
                               std::span<std::uint8_t> mass_failed) {
  ClipAndNormalizeLanes(values.size() / dx.size(), dx.size(), dx.data(),
                        values.data(), mass.data(), mass_failed.data());
}

}  // namespace mfg::numerics
