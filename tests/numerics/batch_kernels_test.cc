// Bit-identity tests for the content-batched (SoA) kernels against their
// scalar counterparts: every lane of a *BatchInto call must reproduce the
// scalar kernel on that lane's data bit-for-bit (not just to tolerance).
// This is the contract the batched solvers build on — see batch_field.h.
//
// Lanes are deliberately heterogeneous (different dx, different sample
// curves) so a lane mix-up or cross-lane arithmetic cannot cancel out.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "numerics/batch_field.h"
#include "numerics/density.h"
#include "numerics/finite_difference.h"
#include "numerics/grid.h"

namespace mfg::numerics {
namespace {

// Bitwise double equality (stricter than operator==: distinguishes ±0 and
// would catch a NaN slipping through as "equal").
void ExpectBitEqual(double actual, double expected, std::size_t node,
                    std::size_t lane) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << "node " << node << " lane " << lane << ": " << actual
      << " != " << expected;
}

// Per-lane synthetic sample: smooth but lane-dependent so no two lanes
// share data.
double Sample(std::size_t node, std::size_t lane) {
  const double x = static_cast<double>(node);
  const double l = static_cast<double>(lane);
  return std::sin(0.31 * x + 0.7 * l) + 0.01 * (l + 1.0) * x * x;
}

std::vector<double> LaneSpacings(std::size_t lanes) {
  std::vector<double> dx(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    dx[l] = 0.25 + 0.125 * static_cast<double>(l);  // All distinct.
  }
  return dx;
}

// The batch kernels take precomputed divisor reciprocals; these helpers
// build them with the exact expressions the kernel contract specifies
// (the same ones the scalar kernels hoist internally).
std::vector<double> InvDx(const std::vector<double>& dx) {
  std::vector<double> inv(dx.size());
  for (std::size_t l = 0; l < dx.size(); ++l) inv[l] = 1.0 / dx[l];
  return inv;
}

std::vector<double> Inv2Dx(const std::vector<double>& dx) {
  std::vector<double> inv(dx.size());
  for (std::size_t l = 0; l < dx.size(); ++l) inv[l] = 1.0 / (2.0 * dx[l]);
  return inv;
}

BatchField Scatter(std::size_t nodes, std::size_t lanes,
                   double (*fn)(std::size_t, std::size_t)) {
  BatchField field;
  field.Assign(nodes, lanes);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      field.at(i, l) = fn(i, l);
    }
  }
  return field;
}

std::vector<double> GatherLane(const BatchField& field, std::size_t lane) {
  std::vector<double> out(field.nodes());
  for (std::size_t i = 0; i < field.nodes(); ++i) {
    out[i] = field.at(i, lane);
  }
  return out;
}

class BatchKernelsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchKernelsTest, GradientMatchesScalarPerLane) {
  const std::size_t lanes = GetParam();
  const std::size_t nodes = 57;
  const std::vector<double> dx = LaneSpacings(lanes);
  const BatchField f = Scatter(nodes, lanes, &Sample);
  BatchField out;
  out.Assign(nodes, lanes);
  GradientBatchInto(InvDx(dx), Inv2Dx(dx), f, out);

  for (std::size_t l = 0; l < lanes; ++l) {
    const std::vector<double> lane_f = GatherLane(f, l);
    std::vector<double> expected(nodes);
    GradientInto(dx[l], lane_f, expected);
    for (std::size_t i = 0; i < nodes; ++i) {
      ExpectBitEqual(out.at(i, l), expected[i], i, l);
    }
  }
}

// Per lane: Density1D::ClipAndNormalize on the gathered row — NaN and
// non-positive samples clipped, the mass in the scalar order, the
// division — including, from width 2, a lane whose mass is 0: it must
// report the failure and keep its clipped samples, as the scalar path
// returns before dividing.
TEST_P(BatchKernelsTest, ClipAndNormalizeMatchesScalarPerLane) {
  const std::size_t lanes = GetParam();
  const std::size_t nodes = 57;
  const std::vector<double> dx = LaneSpacings(lanes);
  BatchField f = Scatter(nodes, lanes, &Sample);
  f.at(3, 0) = std::numeric_limits<double>::quiet_NaN();
  const std::size_t empty_lane = lanes / 2;
  if (lanes > 1) {
    for (std::size_t i = 0; i < nodes; ++i) {
      f.at(i, empty_lane) = -std::fabs(Sample(i, empty_lane));
    }
  }
  const BatchField in = f;
  std::vector<double> mass(lanes);
  std::vector<std::uint8_t> failed(lanes);
  ClipAndNormalizeBatchInto(dx, std::span<double>(f.data(), f.size()), mass,
                            failed);

  for (std::size_t l = 0; l < lanes; ++l) {
    const Grid1D grid =
        Grid1D::Create(0.0, dx[l] * static_cast<double>(nodes - 1), nodes)
            .value();
    ASSERT_EQ(grid.dx(), dx[l]);
    Density1D expected =
        Density1D::FromSamplesUnchecked(grid, GatherLane(in, l)).value();
    const bool normalized = expected.ClipAndNormalize().ok();
    EXPECT_EQ(failed[l] == 0, normalized) << "lane " << l;
    EXPECT_EQ(normalized, !(lanes > 1 && l == empty_lane)) << "lane " << l;
    for (std::size_t i = 0; i < nodes; ++i) {
      ExpectBitEqual(f.at(i, l), expected.values()[i], i, l);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchKernelsTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16),
                         [](const auto& info) {
                           std::string name = "K";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(BatchFieldTest, AssignReusesCapacity) {
  BatchField field;
  field.Assign(16, 8, 1.0);
  const double* data = field.data();
  field.Assign(12, 8, 2.0);  // Smaller: must reuse the same storage.
  EXPECT_EQ(field.data(), data);
  EXPECT_EQ(field.nodes(), 12u);
  EXPECT_EQ(field.at(11, 7), 2.0);
}

}  // namespace
}  // namespace mfg::numerics
