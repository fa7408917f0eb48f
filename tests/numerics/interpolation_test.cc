#include "numerics/interpolation.h"

#include <gtest/gtest.h>

namespace mfg::numerics {
namespace {

Grid1D MakeGrid(double lo, double hi, std::size_t n) {
  return Grid1D::Create(lo, hi, n).value();
}

TEST(LinearInterpolateTest, ExactAtNodes) {
  auto grid = MakeGrid(0.0, 4.0, 5);
  const std::vector<double> f = {1.0, 3.0, 2.0, 5.0, 4.0};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(LinearInterpolate(grid, f, grid.x(i)).value(), f[i]);
  }
}

TEST(LinearInterpolateTest, MidpointIsAverage) {
  auto grid = MakeGrid(0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(LinearInterpolate(grid, {2.0, 6.0}, 0.5).value(), 4.0);
}

TEST(LinearInterpolateTest, ClampsOutside) {
  auto grid = MakeGrid(0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(LinearInterpolate(grid, {2.0, 6.0}, -3.0).value(), 2.0);
  EXPECT_DOUBLE_EQ(LinearInterpolate(grid, {2.0, 6.0}, 9.0).value(), 6.0);
}

TEST(LinearInterpolateTest, LinearFieldIsReproducedExactly) {
  auto grid = MakeGrid(-2.0, 2.0, 17);
  std::vector<double> f(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) f[i] = 3.0 * grid.x(i) - 1.0;
  for (double x : {-1.7, -0.3, 0.0, 0.9, 1.99}) {
    EXPECT_NEAR(LinearInterpolate(grid, f, x).value(), 3.0 * x - 1.0, 1e-12);
  }
}

TEST(LinearInterpolateTest, RejectsSizeMismatch) {
  auto grid = MakeGrid(0.0, 1.0, 3);
  EXPECT_FALSE(LinearInterpolate(grid, {1.0}, 0.5).ok());
}

}  // namespace
}  // namespace mfg::numerics
