#include "numerics/finite_difference.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"

namespace mfg::numerics {
namespace {

Grid1D MakeGrid(double lo, double hi, std::size_t n) {
  return Grid1D::Create(lo, hi, n).value();
}

std::vector<double> Sample(const Grid1D& grid, double (*fn)(double)) {
  std::vector<double> out(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) out[i] = fn(grid.x(i));
  return out;
}

TEST(GradientTest, LinearFunctionIsExact) {
  auto grid = MakeGrid(0.0, 1.0, 11);
  auto f = Sample(grid, +[](double x) { return 3.0 * x + 1.0; });
  auto g = Gradient(grid, f);
  ASSERT_TRUE(g.ok());
  for (double v : *g) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(GradientTest, QuadraticInteriorSecondOrder) {
  auto grid = MakeGrid(0.0, 1.0, 101);
  auto f = Sample(grid, +[](double x) { return x * x; });
  auto g = Gradient(grid, f);
  ASSERT_TRUE(g.ok());
  // Central differences are exact for quadratics in the interior.
  for (std::size_t i = 1; i + 1 < grid.size(); ++i) {
    EXPECT_NEAR((*g)[i], 2.0 * grid.x(i), 1e-10);
  }
}

TEST(GradientTest, SineConvergence) {
  auto coarse_grid = MakeGrid(0.0, 3.14, 21);
  auto fine_grid = MakeGrid(0.0, 3.14, 201);
  auto err = [](const Grid1D& grid) {
    std::vector<double> f(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) f[i] = std::sin(grid.x(i));
    auto g = Gradient(grid, f).value();
    double max_err = 0.0;
    for (std::size_t i = 1; i + 1 < grid.size(); ++i) {
      max_err = std::max(max_err, std::fabs(g[i] - std::cos(grid.x(i))));
    }
    return max_err;
  };
  // Refining 10x should cut the interior error ~100x (second order).
  EXPECT_LT(err(fine_grid), err(coarse_grid) / 50.0);
}

TEST(GradientTest, RejectsSizeMismatch) {
  auto grid = MakeGrid(0.0, 1.0, 5);
  EXPECT_FALSE(Gradient(grid, {1.0, 2.0}).ok());
}

TEST(UpwindGradientTest, PicksDirectionByVelocitySign) {
  auto grid = MakeGrid(0.0, 4.0, 5);
  const std::vector<double> f = {0.0, 1.0, 4.0, 9.0, 16.0};  // x^2.
  // Positive velocity -> backward difference.
  auto g_pos =
      UpwindGradient(grid, f, std::vector<double>(5, 1.0)).value();
  EXPECT_DOUBLE_EQ(g_pos[2], 4.0 - 1.0);  // (f[2]-f[1])/1.
  // Negative velocity -> forward difference.
  auto g_neg =
      UpwindGradient(grid, f, std::vector<double>(5, -1.0)).value();
  EXPECT_DOUBLE_EQ(g_neg[2], 9.0 - 4.0);
}

TEST(UpwindGradientTest, BoundariesUseOneSided) {
  auto grid = MakeGrid(0.0, 2.0, 3);
  const std::vector<double> f = {0.0, 1.0, 4.0};
  auto g = UpwindGradient(grid, f, {1.0, 1.0, -1.0}).value();
  EXPECT_DOUBLE_EQ(g[0], 1.0);   // Forced forward at left boundary.
  EXPECT_DOUBLE_EQ(g[2], 3.0);   // Forced backward at right boundary.
}

TEST(SecondDerivativeTest, QuadraticIsExactInInterior) {
  auto grid = MakeGrid(0.0, 1.0, 51);
  auto f = Sample(grid, +[](double x) { return 5.0 * x * x; });
  auto d2 = SecondDerivative(grid, f);
  ASSERT_TRUE(d2.ok());
  for (double v : *d2) EXPECT_NEAR(v, 10.0, 1e-8);
}

TEST(SecondDerivativeTest, LinearIsZero) {
  auto grid = MakeGrid(0.0, 1.0, 21);
  auto f = Sample(grid, +[](double x) { return 2.0 * x; });
  auto d2 = SecondDerivative(grid, f);
  ASSERT_TRUE(d2.ok());
  for (double v : *d2) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(StableTimeStepTest, Formulas) {
  // Advection-limited.
  EXPECT_NEAR(StableTimeStep(0.1, 2.0, 0.0, 1.0), 0.05, 1e-12);
  // Diffusion-limited.
  EXPECT_NEAR(StableTimeStep(0.1, 0.0, 1.0, 1.0), 0.005, 1e-12);
  // Safety factor applies.
  EXPECT_NEAR(StableTimeStep(0.1, 2.0, 0.0, 0.5), 0.025, 1e-12);
  // Degenerate: no constraint.
  EXPECT_TRUE(std::isinf(StableTimeStep(0.1, 0.0, 0.0)));
}

}  // namespace
}  // namespace mfg::numerics
