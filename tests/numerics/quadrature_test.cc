#include "numerics/quadrature.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mfg::numerics {
namespace {

Grid1D MakeGrid(double lo, double hi, std::size_t n) {
  return Grid1D::Create(lo, hi, n).value();
}

TEST(TrapezoidTest, ConstantAndLinearAreExact) {
  auto grid = MakeGrid(0.0, 2.0, 5);
  EXPECT_NEAR(Trapezoid(grid, std::vector<double>(5, 3.0)).value(), 6.0,
              1e-12);
  std::vector<double> linear(5);
  for (std::size_t i = 0; i < 5; ++i) linear[i] = grid.x(i);
  EXPECT_NEAR(Trapezoid(grid, linear).value(), 2.0, 1e-12);
}

TEST(TrapezoidTest, QuadraticConverges) {
  auto integrate = [](std::size_t n) {
    auto grid = MakeGrid(0.0, 1.0, n);
    std::vector<double> f(n);
    for (std::size_t i = 0; i < n; ++i) f[i] = grid.x(i) * grid.x(i);
    return Trapezoid(grid, f).value();
  };
  EXPECT_NEAR(integrate(1001), 1.0 / 3.0, 1e-6);
  // Second-order convergence.
  const double err_coarse = std::fabs(integrate(11) - 1.0 / 3.0);
  const double err_fine = std::fabs(integrate(101) - 1.0 / 3.0);
  EXPECT_LT(err_fine, err_coarse / 50.0);
}

TEST(TrapezoidTest, RejectsSizeMismatch) {
  auto grid = MakeGrid(0.0, 1.0, 5);
  EXPECT_FALSE(Trapezoid(grid, {1.0}).ok());
}

TEST(TrapezoidProductTest, WeightedMoment) {
  auto grid = MakeGrid(0.0, 1.0, 201);
  std::vector<double> f(grid.size()), g(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    f[i] = grid.x(i);
    g[i] = grid.x(i);
  }
  EXPECT_NEAR(TrapezoidProduct(grid, f, g).value(), 1.0 / 3.0, 1e-4);
}

TEST(TrapezoidOnIntervalTest, FullIntervalMatchesTrapezoid) {
  auto grid = MakeGrid(0.0, 1.0, 101);
  std::vector<double> f(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    f[i] = std::exp(grid.x(i));
  }
  const double full = Trapezoid(grid, f).value();
  const double windowed = TrapezoidOnInterval(grid, f, 0.0, 1.0).value();
  EXPECT_NEAR(windowed, full, 1e-12);
}

TEST(TrapezoidOnIntervalTest, SplitIsAdditive) {
  auto grid = MakeGrid(0.0, 1.0, 101);
  std::vector<double> f(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    f[i] = 1.0 + std::sin(5.0 * grid.x(i));
  }
  const double full = TrapezoidOnInterval(grid, f, 0.0, 1.0).value();
  // Split at an off-node point.
  const double left = TrapezoidOnInterval(grid, f, 0.0, 0.237).value();
  const double right = TrapezoidOnInterval(grid, f, 0.237, 1.0).value();
  EXPECT_NEAR(left + right, full, 1e-10);
}

TEST(TrapezoidOnIntervalTest, SubCellInterval) {
  auto grid = MakeGrid(0.0, 1.0, 11);  // dx = 0.1.
  std::vector<double> f(grid.size(), 2.0);
  // [0.52, 0.58] lies inside one cell.
  EXPECT_NEAR(TrapezoidOnInterval(grid, f, 0.52, 0.58).value(), 0.12, 1e-12);
}

TEST(TrapezoidOnIntervalTest, EmptyAndOutOfRangeIntervals) {
  auto grid = MakeGrid(0.0, 1.0, 11);
  std::vector<double> f(grid.size(), 1.0);
  EXPECT_DOUBLE_EQ(TrapezoidOnInterval(grid, f, 0.7, 0.3).value(), 0.0);
  EXPECT_DOUBLE_EQ(TrapezoidOnInterval(grid, f, 2.0, 3.0).value(), 0.0);
  // Clamped to the grid span.
  EXPECT_NEAR(TrapezoidOnInterval(grid, f, -5.0, 5.0).value(), 1.0, 1e-12);
}

}  // namespace
}  // namespace mfg::numerics
