#include "numerics/density.h"

#include <gtest/gtest.h>

namespace mfg::numerics {
namespace {

Grid1D MakeGrid(double lo, double hi, std::size_t n) {
  return Grid1D::Create(lo, hi, n).value();
}

TEST(GaussianPdfTest, PeakAndSymmetry) {
  EXPECT_NEAR(GaussianPdf(0.0, 0.0, 1.0), 0.3989422804, 1e-9);
  EXPECT_DOUBLE_EQ(GaussianPdf(1.0, 0.0, 1.0), GaussianPdf(-1.0, 0.0, 1.0));
  EXPECT_GT(GaussianPdf(2.0, 2.0, 0.5), GaussianPdf(3.0, 2.0, 0.5));
}

TEST(DensityTest, UniformHasUnitMassAndMidMean) {
  auto grid = MakeGrid(0.0, 10.0, 101);
  auto density = Density1D::Uniform(grid).value();
  EXPECT_NEAR(density.Mass(), 1.0, 1e-12);
  EXPECT_NEAR(density.Mean(), 5.0, 1e-9);
  EXPECT_NEAR(density.Variance(), 100.0 / 12.0, 0.01);
}

TEST(DensityTest, TruncatedGaussianMoments) {
  auto grid = MakeGrid(0.0, 100.0, 401);
  // Well inside the domain: truncation is negligible.
  auto density = Density1D::TruncatedGaussian(grid, 70.0, 10.0).value();
  EXPECT_NEAR(density.Mass(), 1.0, 1e-12);
  EXPECT_NEAR(density.Mean(), 70.0, 0.05);
  // Truncation to [0, 100] (±3σ) trims the tails, so the variance sits a
  // little below σ² = 100.
  EXPECT_NEAR(density.Variance(), 100.0, 2.5);
}

TEST(DensityTest, TruncatedGaussianValidation) {
  auto grid = MakeGrid(0.0, 1.0, 11);
  EXPECT_FALSE(Density1D::TruncatedGaussian(grid, 0.5, 0.0).ok());
  EXPECT_FALSE(Density1D::TruncatedGaussian(grid, 0.5, -1.0).ok());
  // Mean absurdly far away: mass underflows.
  EXPECT_FALSE(Density1D::TruncatedGaussian(grid, 1e6, 0.01).ok());
}

TEST(DensityTest, FromSamplesUncheckedSkipsValidation) {
  auto grid = MakeGrid(0.0, 1.0, 3);
  auto density =
      Density1D::FromSamplesUnchecked(grid, {1.0, -0.5, 1.0});
  ASSERT_TRUE(density.ok());
  ASSERT_TRUE(density->ClipAndNormalize().ok());
  EXPECT_NEAR(density->Mass(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(density->values()[1], 0.0);
}

TEST(DensityTest, MassOnIntervalSplitsAtThreshold) {
  auto grid = MakeGrid(0.0, 100.0, 401);
  auto density = Density1D::TruncatedGaussian(grid, 50.0, 10.0).value();
  const double below = density.MassOnInterval(0.0, 50.0);
  const double above = density.MassOnInterval(50.0, 100.0);
  EXPECT_NEAR(below + above, 1.0, 1e-9);
  EXPECT_NEAR(below, 0.5, 0.01);
}

TEST(DensityTest, MeanOnIntervalAdditive) {
  auto grid = MakeGrid(0.0, 100.0, 401);
  auto density = Density1D::TruncatedGaussian(grid, 60.0, 15.0).value();
  const double split = 42.0;
  EXPECT_NEAR(density.MeanOnInterval(0.0, split) +
                  density.MeanOnInterval(split, 100.0),
              density.Mean(), 1e-9);
}

TEST(DensityTest, L1DistanceProperties) {
  auto grid = MakeGrid(0.0, 1.0, 51);
  auto a = Density1D::TruncatedGaussian(grid, 0.3, 0.1).value();
  auto b = Density1D::TruncatedGaussian(grid, 0.7, 0.1).value();
  EXPECT_NEAR(a.L1Distance(a).value(), 0.0, 1e-12);
  const double d_ab = a.L1Distance(b).value();
  EXPECT_NEAR(d_ab, b.L1Distance(a).value(), 1e-12);
  EXPECT_GT(d_ab, 1.0);   // Nearly disjoint bumps -> close to 2.
  EXPECT_LE(d_ab, 2.0 + 1e-9);
}

TEST(DensityTest, L1DistanceRequiresSameGrid) {
  auto g1 = MakeGrid(0.0, 1.0, 51);
  auto g2 = MakeGrid(0.0, 1.0, 41);
  auto a = Density1D::Uniform(g1).value();
  auto b = Density1D::Uniform(g2).value();
  EXPECT_FALSE(a.L1Distance(b).ok());
}

TEST(DensityTest, NormalizeFailsOnZeroMass) {
  auto grid = MakeGrid(0.0, 1.0, 3);
  auto density =
      Density1D::FromSamplesUnchecked(grid, {0.0, 0.0, 0.0}).value();
  EXPECT_FALSE(density.Normalize().ok());
}

}  // namespace
}  // namespace mfg::numerics
