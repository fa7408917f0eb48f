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
// bit-for-bit. Pointer-only free function for the vectorizer, with
// AVX2/AVX-512 clones behind runtime dispatch (see fpk_batch.cc).
MFGCP_BATCH_TARGET_CLONES
void ClipAndNormalizeLanes(std::size_t nq, std::size_t m, const double* dx,
                           double* __restrict v, double* __restrict mass,
                           std::uint8_t* __restrict failed) {
  for (std::size_t k = 0; k < nq * m; ++k) {
    v[k] = v[k] > 0.0 ? v[k] : 0.0;  // Also clears NaN.
  }
  const std::size_t last = (nq - 1) * m;
  for (std::size_t l = 0; l < m; ++l) {
    mass[l] = 0.5 * (v[l] + v[last + l]);
  }
  for (std::size_t i = 1; i + 1 < nq; ++i) {
    const std::size_t row = i * m;
    for (std::size_t l = 0; l < m; ++l) mass[l] += v[row + l];
  }
  for (std::size_t l = 0; l < m; ++l) {
    mass[l] *= dx[l];
    failed[l] = !(mass[l] > 1e-300) ? 1 : 0;
  }
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t row = i * m;
    for (std::size_t l = 0; l < m; ++l) {
      // Division (not reciprocal-multiply), as in Normalize(); failed
      // lanes keep their clipped samples, the spent quotient is discarded.
      const double normalized = v[row + l] / mass[l];
      v[row + l] = failed[l] != 0 ? v[row + l] : normalized;
    }
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

void ClipAndNormalizeBatchInto(std::span<const double> dx, BatchField& values,
                               std::span<double> mass,
                               std::span<std::uint8_t> mass_failed) {
  ClipAndNormalizeLanes(values.nodes(), values.lanes(), dx.data(),
                        values.data(), mass.data(), mass_failed.data());
}

}  // namespace mfg::numerics
