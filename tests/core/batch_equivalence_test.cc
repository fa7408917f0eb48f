// Bit-identity tests for the content-batched solver layer against the
// scalar solvers it replaces (ARCHITECTURE.md "Batched solver layer").
//
// The contract under test: lane l of a batched solve executes the exact
// scalar expression tree on lane-l data, so every active lane's result is
// bitwise equal to the scalar solver's — at every batch width, for
// heterogeneous lanes (different content sizes mean different grid
// spacings and CFL substep counts per lane), and through the whole epoch
// pipeline (PlanEpochInto with batch_width 1 vs >1, catalogs that do not
// divide the block size, parallelism 1 vs 2, and implicit FPK, which the
// epoch path solves on the scalar block body at every width).

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/best_response.h"
#include "core/best_response_batch.h"
#include "core/fault_injection.h"
#include "core/fpk_batch.h"
#include "core/fpk_solver.h"
#include "core/hjb_batch.h"
#include "core/hjb_solver.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_cp.h"
#include "epoch_test_util.h"
#include "obs/alloc_probe.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

using ::mfg::core::testing::ExpectEquilibriumIdentical;
using ::mfg::core::testing::ExpectPlanBuffersIdentical;
using ::mfg::core::testing::FastOptions;
using ::mfg::core::testing::MakeFramework;
using ::mfg::core::testing::MakeObservation;

// Heterogeneous per-lane params on a shared grid shape (the epoch-path
// invariant): content size — and with it dx, the drift bound, and the CFL
// substep count — plus workload and learning controls all vary per lane.
MfgParams LaneParams(std::size_t lane) {
  static constexpr double kSizes[] = {100.0, 60.0, 140.0, 90.0,
                                      120.0, 75.0, 105.0, 130.0};
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = 41;
  params.grid.num_time_steps = 50;
  params.content_id = lane;
  params.content_size = kSizes[lane % 8];
  // Lanes 8–15 (width 16) repeat the sizes of 0–7 and must stay valid
  // popularities, so the popularity steps per block of eight.
  params.popularity = 0.15 + 0.08 * static_cast<double>(lane % 8) +
                      0.01 * static_cast<double>(lane / 8);
  params.timeliness = 2.0 + 0.3 * static_cast<double>(lane);
  params.num_requests = 6.0 + 2.0 * static_cast<double>(lane);
  params.learning.max_iterations = 20;
  return params;
}

// Lane-varying synthetic mean field (same shape as the one in
// solver_equivalence_test, offset per lane).
std::vector<MeanFieldQuantities> LaneMeanField(std::size_t nt,
                                               std::size_t lane) {
  const double o = 0.1 * static_cast<double>(lane);
  std::vector<MeanFieldQuantities> mf(nt + 1);
  for (std::size_t n = 0; n <= nt; ++n) {
    const double s = static_cast<double>(n) / static_cast<double>(nt);
    mf[n].price = 5.0 - 2.0 * s + o;
    mf[n].mean_peer_remaining = 60.0 - 30.0 * s - 5.0 * o;
    mf[n].sharing_benefit = 1.5 * s + o;
    mf[n].mean_caching_rate = 0.4 + 0.2 * s;
    mf[n].sharer_fraction = 0.3 + 0.4 * s;
    mf[n].case3_fraction =
        (1.0 - mf[n].sharer_fraction) * (1.0 - mf[n].sharer_fraction);
    mf[n].delta_q = 10.0 * (1.0 - s) + o;
  }
  return mf;
}

class BatchSolverTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSolverTest, HjbBatchMatchesScalarBitwise) {
  const std::size_t lanes = GetParam();
  HjbBatchSolver batch;
  batch.Reset(lanes);
  std::vector<std::vector<MeanFieldQuantities>> mean_fields(lanes);
  std::vector<HjbSolution> solutions(lanes);
  std::vector<HjbBatchSolver::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const MfgParams params = LaneParams(l);
    ASSERT_TRUE(batch.BindLane(l, params).ok()) << "lane " << l;
    mean_fields[l] = LaneMeanField(params.grid.num_time_steps, l);
    io[l].mean_field = &mean_fields[l];
    io[l].solution = &solutions[l];
    io[l].active = true;
  }
  HjbBatchSolver::Workspace ws;
  batch.SolveInto(io, ws);

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(io[l].status.ok());
    auto scalar = HjbSolver1D::Create(LaneParams(l)).value();
    const HjbSolution expected = scalar.Solve(mean_fields[l]).value();
    EXPECT_TRUE(solutions[l].value == expected.value);
    EXPECT_TRUE(solutions[l].policy == expected.policy);
    EXPECT_EQ(solutions[l].dt, expected.dt);
  }
}

void CheckFpkBatch(std::size_t lanes) {
  FpkBatchSolver batch;
  batch.Reset(lanes);
  std::vector<numerics::Density1D> initials;
  std::vector<numerics::TimeField2D> policies(lanes);
  std::vector<FpkSolution> solutions(lanes);
  std::vector<FpkBatchSolver::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const MfgParams params = LaneParams(l);
    ASSERT_TRUE(batch.BindLane(l, params).ok()) << "lane " << l;
    auto scalar = FpkSolver1D::Create(params).value();
    initials.push_back(scalar.MakeInitialDensity().value());
    const std::size_t nt = params.grid.num_time_steps;
    const std::size_t nq = params.grid.num_q_nodes;
    policies[l].Assign(nt + 1, nq, 0.0);
    for (std::size_t n = 0; n <= nt; ++n) {
      for (std::size_t i = 0; i < nq; ++i) {
        policies[l][n][i] =
            0.15 + 0.05 * static_cast<double>(l) +
            0.6 * static_cast<double>(i) / static_cast<double>(nq - 1) +
            0.1 * static_cast<double>(n) / static_cast<double>(nt);
      }
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    io[l].initial = &initials[l];
    io[l].policy = &policies[l];
    io[l].solution = &solutions[l];
    io[l].active = true;
  }
  FpkBatchSolver::Workspace ws;
  batch.SolveInto(io, ws);

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(io[l].status.ok());
    auto scalar = FpkSolver1D::Create(LaneParams(l)).value();
    const FpkSolution expected =
        scalar.Solve(initials[l], policies[l]).value();
    ASSERT_EQ(solutions[l].densities.size(), expected.densities.size());
    for (std::size_t n = 0; n < expected.densities.size(); ++n) {
      EXPECT_EQ(solutions[l].densities[n].values(),
                expected.densities[n].values())
          << "time node " << n;
    }
  }
}

TEST_P(BatchSolverTest, FpkBatchExplicitMatchesScalarBitwise) {
  CheckFpkBatch(GetParam());
}

// Only explicit FPK is batched: an implicit lane fails BindLane loudly,
// first in its block or after explicit lanes, instead of silently stepping
// explicitly (the epoch path solves implicit FPK on the scalar block body;
// see BatchEpochEquivalenceTest.BatchWidthsProduceIdenticalPlans).
TEST_P(BatchSolverTest, FpkBatchRejectsImplicitLane) {
  const std::size_t lanes = GetParam();
  FpkBatchSolver batch;
  batch.Reset(lanes);
  for (std::size_t l = 0; l + 1 < lanes; ++l) {
    ASSERT_TRUE(batch.BindLane(l, LaneParams(l)).ok()) << "lane " << l;
  }
  MfgParams implicit = LaneParams(lanes - 1);
  implicit.grid.implicit_fpk = true;
  EXPECT_EQ(batch.BindLane(lanes - 1, implicit).code(),
            common::StatusCode::kInvalidArgument);
}

TEST_P(BatchSolverTest, BestResponseBatchMatchesScalarBitwise) {
  const std::size_t lanes = GetParam();
  BatchBestResponseLearner batch;
  batch.Reset(lanes);
  std::vector<Equilibrium> equilibria(lanes);
  std::vector<BatchBestResponseLearner::LaneJob> jobs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    MfgParams params = LaneParams(l);
    // Lanes leave the lockstep loop at different iterations; with 8 lanes
    // the tightest ones also exhaust max_iterations unconverged, covering
    // the trailing-FPK exit path.
    params.learning.max_iterations = 3 + 2 * l;
    ASSERT_TRUE(batch.BindLane(l, params).ok()) << "lane " << l;
    jobs[l].content = l;
    jobs[l].active = true;
    jobs[l].out = &equilibria[l];
  }
  BatchBestResponseLearner::Workspace ws;
  batch.SolveInto(jobs, ws);

  bool any_converged = false;
  bool any_unconverged = false;
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(jobs[l].status.ok());
    MfgParams params = LaneParams(l);
    params.learning.max_iterations = 3 + 2 * l;
    auto scalar = BestResponseLearner::Create(params).value();
    BestResponseLearner::Workspace sws;
    Equilibrium expected;
    ASSERT_TRUE(scalar.SolveInto(sws, expected).ok());
    ExpectEquilibriumIdentical(equilibria[l], expected);
    (expected.converged ? any_converged : any_unconverged) = true;
  }
  if (lanes >= 8) {
    // The scenario must mix both exits or it proves less than it claims.
    EXPECT_TRUE(any_converged);
    EXPECT_TRUE(any_unconverged);
  }
}

// The lanes of BestResponseBatchMatchesScalarBitwise: max_iterations
// 3 + 2l, so lanes leave the loop at different rounds, converged or
// exhausted.
MfgParams ExitLaneParams(std::size_t lane) {
  MfgParams params = LaneParams(lane);
  params.learning.max_iterations = 3 + 2 * lane;
  return params;
}

void BindExitLanes(std::size_t lanes, BatchBestResponseLearner& batch,
                   std::vector<Equilibrium>& equilibria,
                   std::vector<BatchBestResponseLearner::LaneJob>& jobs) {
  batch.Reset(lanes);
  equilibria.resize(lanes);
  jobs.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(batch.BindLane(l, ExitLaneParams(l)).ok()) << "lane " << l;
    jobs[l].content = l;
    jobs[l].active = true;
    jobs[l].out = &equilibria[l];
  }
}

Equilibrium ScalarEquilibrium(const MfgParams& params) {
  auto scalar = BestResponseLearner::Create(params).value();
  BestResponseLearner::Workspace sws;
  Equilibrium expected;
  EXPECT_TRUE(scalar.SolveInto(sws, expected).ok());
  return expected;
}

// A lane that fails mid-loop leaves it alone: its neighbors, which go on
// to converge or exhaust their iterations, stay bitwise the scalar
// learner's. The seam keys faults by (site, epoch, content, attempt), so
// the injected kHjbStep fault fires at the lane's first HJB poll (round
// 1), after its setup and initial FPK sweep; the lane is written out with
// the loop's state at that point.
TEST_P(BatchSolverTest, FailedLaneLeavesNeighborsBitwiseScalar) {
  const std::size_t lanes = GetParam();
  const std::size_t failing = lanes / 2;
  faults::FaultPlan plan;
  faults::FaultSpec spec;
  spec.site = faults::FaultSite::kHjbStep;
  spec.content = failing;
  plan.Add(spec);

  BatchBestResponseLearner batch;
  std::vector<Equilibrium> equilibria;
  std::vector<BatchBestResponseLearner::LaneJob> jobs;
  BindExitLanes(lanes, batch, equilibria, jobs);
  BatchBestResponseLearner::Workspace ws;
  {
    faults::ScopedFaultInjection arm(plan);
    batch.SolveInto(jobs, ws);
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    const MfgParams params = ExitLaneParams(l);
    if (l != failing) {
      ASSERT_TRUE(jobs[l].status.ok());
      ExpectEquilibriumIdentical(equilibria[l], ScalarEquilibrium(params));
      continue;
    }
    EXPECT_EQ(jobs[l].status.code(), common::StatusCode::kNumericalError);
    const Equilibrium& eq = equilibria[l];
    EXPECT_EQ(eq.iterations, 1u);
    EXPECT_FALSE(eq.converged);
    EXPECT_TRUE(eq.policy_change_history.empty());
    // The initial iterate, V⁰ = 0 and λ under the initial iterate.
    const std::size_t nt = params.grid.num_time_steps;
    const std::size_t nq = params.grid.num_q_nodes;
    EXPECT_TRUE(eq.hjb.policy == numerics::TimeField2D(nt + 1, nq, 0.5));
    EXPECT_TRUE(eq.hjb.value == numerics::TimeField2D(nt + 1, nq, 0.0));
    auto fpk = FpkSolver1D::Create(params).value();
    const FpkSolution expected =
        fpk.Solve(fpk.MakeInitialDensity().value(), eq.hjb.policy).value();
    ASSERT_EQ(eq.fpk.densities.size(), expected.densities.size());
    for (std::size_t n = 0; n < expected.densities.size(); ++n) {
      EXPECT_EQ(eq.fpk.densities[n].values(), expected.densities[n].values())
          << "time node " << n;
    }
  }
}

// A lane inactive in a later solve on the same workspace keeps its
// Equilibrium from the earlier one bit for bit, while its neighbors,
// rebound to new params, match fresh scalar solves.
TEST_P(BatchSolverTest, InactiveLaneEquilibriumIsUntouched) {
  const std::size_t lanes = GetParam();
  const std::size_t idle = lanes - 1;
  BatchBestResponseLearner batch;
  std::vector<Equilibrium> equilibria;
  std::vector<BatchBestResponseLearner::LaneJob> jobs;
  BindExitLanes(lanes, batch, equilibria, jobs);
  BatchBestResponseLearner::Workspace ws;
  batch.SolveInto(jobs, ws);
  ASSERT_TRUE(jobs[idle].status.ok());
  const Equilibrium kept = equilibria[idle];

  for (std::size_t l = 0; l < lanes; ++l) {
    if (l == idle) continue;
    ASSERT_TRUE(batch.BindLane(l, ExitLaneParams(l + 1)).ok());
    jobs[l].content = l + 1;
  }
  jobs[idle].active = false;
  jobs[idle].status = common::Status::Internal("left as set");
  batch.SolveInto(jobs, ws);

  EXPECT_EQ(jobs[idle].status.code(), common::StatusCode::kInternal);
  ExpectEquilibriumIdentical(equilibria[idle], kept);
  for (std::size_t l = 0; l < lanes; ++l) {
    if (l == idle) continue;
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(jobs[l].status.ok());
    ExpectEquilibriumIdentical(equilibria[l],
                               ScalarEquilibrium(ExitLaneParams(l + 1)));
  }
}

// True when this binary's operator-new overrides are live (sanitizer
// builds interpose their own allocator ahead of them).
bool AllocationProbeActive() {
  const std::size_t before = obs::AllocationCount();
  void* p = ::operator new(32);
  const bool active = obs::AllocationCount() != before;
  ::operator delete(p);
  return active;
}

TEST_P(BatchSolverTest, WarmedBestResponseBatchAllocatesNothing) {
  if (!AllocationProbeActive()) {
    GTEST_SKIP() << "allocation hooks inactive (sanitizer allocator?)";
  }
  const std::size_t lanes = GetParam();
  BatchBestResponseLearner batch;
  std::vector<Equilibrium> equilibria;
  std::vector<BatchBestResponseLearner::LaneJob> jobs;
  BindExitLanes(lanes, batch, equilibria, jobs);
  BatchBestResponseLearner::Workspace ws;
  batch.SolveInto(jobs, ws);  // Warms the workspace and the outputs.
  const std::size_t before = obs::AllocationCount();
  batch.SolveInto(jobs, ws);
  EXPECT_EQ(obs::AllocationCount() - before, 0u);
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_TRUE(jobs[l].status.ok()) << "lane " << l;
  }
}

// Estimator lanes: besides content size (dx and the grid's upper end),
// where α·Q_k falls on the lane's grid, the sharing switch, and a density
// with almost no sharer mass. Validate() keeps α < 1, so α·Q_k never
// reaches past the grid's upper end; the closest it gets (lane 7) leaves
// the upper interval inside the last cell. The empty interval itself is
// covered by quadrature_test.
MfgParams EstimateLaneParams(std::size_t lane) {
  MfgParams params = LaneParams(lane);
  switch (lane % 8) {
    case 1:
      params.case_alpha = 0.25;  // On node 10 (checked below).
      break;
    case 2:
      params.case_alpha = 0.237;  // Inside cell 9.
      break;
    case 3:
      params.case_alpha = 0.99;  // Upper interval inside the last cell.
      break;
    case 4:
      params.case_alpha = 0.01;  // Lower interval inside the first cell.
      break;
    case 5:
      params.sharing_enabled = false;
      break;
    case 7:
      params.case_alpha = std::nextafter(1.0, 0.0);
      break;
    default:  // 0: α = 0.2, on node 8. 6: see EstimateLaneDensity.
      break;
  }
  return params;
}

// Lane 6 (mod 8) puts its mass near Q_k, so its sharer mass is positive
// but below the estimator's 1e-9 guard.
numerics::Density1D EstimateLaneDensity(const numerics::Grid1D& grid,
                                        std::size_t lane) {
  const bool no_sharers = lane % 8 == 6;
  const double l = static_cast<double>(lane);
  const double mean = (no_sharers ? 0.9 : 0.3 + 0.04 * l) * grid.hi();
  const double stddev = (no_sharers ? 0.03 : 0.12 + 0.01 * l) * grid.hi();
  std::vector<double> values(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double z = (grid.x(i) - mean) / stddev;
    values[i] = std::exp(-0.5 * z * z);
  }
  auto density =
      numerics::Density1D::FromSamplesUnchecked(grid, std::move(values))
          .value();
  EXPECT_TRUE(density.ClipAndNormalize().ok());
  return density;
}

void ExpectQuantitiesBitEqual(const MeanFieldQuantities& a,
                              const MeanFieldQuantities& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(a.mean_caching_rate), bits(b.mean_caching_rate));
  EXPECT_EQ(bits(a.price), bits(b.price));
  EXPECT_EQ(bits(a.mean_peer_remaining), bits(b.mean_peer_remaining));
  EXPECT_EQ(bits(a.delta_q), bits(b.delta_q));
  EXPECT_EQ(bits(a.sharer_fraction), bits(b.sharer_fraction));
  EXPECT_EQ(bits(a.case3_fraction), bits(b.case3_fraction));
  EXPECT_EQ(bits(a.sharing_benefit), bits(b.sharing_benefit));
}

TEST_P(BatchSolverTest, EstimateBatchMatchesScalarBitwise) {
  const std::size_t lanes = GetParam();
  MeanFieldBatchEstimator batch;
  batch.Reset(lanes);
  std::vector<MeanFieldEstimator> scalar;
  std::vector<numerics::Density1D> densities;
  std::vector<std::vector<double>> policies(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const MfgParams params = EstimateLaneParams(l);
    scalar.push_back(MeanFieldEstimator::Create(params).value());
    ASSERT_TRUE(batch.BindLane(l, scalar[l]).ok()) << "lane " << l;
    const numerics::Grid1D grid = params.MakeQGrid().value();
    if (l % 8 == 1) {
      ASSERT_EQ(params.case_alpha * params.content_size, grid.x(10));
    }
    densities.push_back(EstimateLaneDensity(grid, l));
    policies[l].resize(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      policies[l][i] = 0.1 + 0.07 * static_cast<double>(l % 5) +
                       0.5 * static_cast<double>(i) /
                           static_cast<double>(grid.size() - 1);
    }
  }
  const std::size_t nq = densities[0].values().size();
  std::vector<double> rows(nq * lanes);
  std::vector<double> policy_rows(nq * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < nq; ++i) {
      rows[i * lanes + l] = densities[l].values()[i];
      policy_rows[i * lanes + l] = policies[l][i];
    }
  }

  std::vector<MeanFieldQuantities> out(lanes);
  std::vector<MeanFieldBatchEstimator::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    io[l].out = &out[l];
    io[l].active = true;
  }
  MeanFieldBatchEstimator::Workspace ws;
  batch.EstimateInto(rows, policy_rows, io, ws);

  std::vector<MeanFieldQuantities> expected(lanes);
  MeanFieldEstimator::Workspace sws;
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(
        scalar[l].EstimateInto(densities[l], policies[l], sws, expected[l])
            .ok());
    ExpectQuantitiesBitEqual(out[l], expected[l]);
    if (l % 8 == 6) {
      EXPECT_GT(expected[l].sharer_fraction, 0.0);
      EXPECT_LT(expected[l].sharer_fraction, 1e-9);
    }
  }

  // An inactive lane's column may hold anything (the FPK rows of a lane
  // that left the loop): it is neither written nor leaks into a neighbor.
  if (lanes < 2) return;
  for (std::size_t i = 0; i < nq; ++i) {
    rows[i * lanes] = std::numeric_limits<double>::quiet_NaN();
    policy_rows[i * lanes] = std::numeric_limits<double>::quiet_NaN();
  }
  io[0].active = false;
  out.assign(lanes, MeanFieldQuantities{});
  batch.EstimateInto(rows, policy_rows, io, ws);
  EXPECT_EQ(out[0].price, 0.0);
  for (std::size_t l = 1; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ExpectQuantitiesBitEqual(out[l], expected[l]);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchSolverTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16),
                         [](const auto& info) {
                           std::string name = "K";
                           name += std::to_string(info.param);
                           return name;
                         });

// Rebinding the same lanes to new params (the next epoch) must behave
// like freshly bound lanes — the epoch path rebinds in place.
TEST(BatchSolverTest, RebindingLanesMatchesFreshSolver) {
  const std::size_t lanes = 4;
  BatchBestResponseLearner batch;
  batch.Reset(lanes);
  std::vector<Equilibrium> equilibria(lanes);
  std::vector<BatchBestResponseLearner::LaneJob> jobs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(batch.BindLane(l, LaneParams(l)).ok());
    jobs[l].content = l;
    jobs[l].active = true;
    jobs[l].out = &equilibria[l];
  }
  BatchBestResponseLearner::Workspace ws;
  batch.SolveInto(jobs, ws);

  // Epoch 2: rotate the params across lanes and reuse learner + outputs.
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(batch.BindLane(l, LaneParams(l + 1)).ok());
    jobs[l].epoch = 1;
    jobs[l].content = l + 1;
  }
  batch.SolveInto(jobs, ws);

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(jobs[l].status.ok());
    auto scalar = BestResponseLearner::Create(LaneParams(l + 1)).value();
    BestResponseLearner::Workspace sws;
    Equilibrium expected;
    ASSERT_TRUE(scalar.SolveInto(sws, expected).ok());
    ExpectEquilibriumIdentical(equilibria[l], expected);
  }
}

// An invalid lane fails at BindLane without poisoning its neighbors.
TEST(BatchSolverTest, InvalidLaneFailsBindWithoutAffectingOthers) {
  BatchBestResponseLearner batch;
  batch.Reset(2);
  MfgParams bad = LaneParams(1);
  bad.content_size = -1.0;
  ASSERT_TRUE(batch.BindLane(0, LaneParams(0)).ok());
  EXPECT_FALSE(batch.BindLane(1, bad).ok());
  ASSERT_TRUE(batch.BindLane(1, LaneParams(1)).ok());  // Rebind cleanly.

  std::vector<Equilibrium> equilibria(2);
  std::vector<BatchBestResponseLearner::LaneJob> jobs(2);
  for (std::size_t l = 0; l < 2; ++l) {
    jobs[l].content = l;
    jobs[l].active = true;
    jobs[l].out = &equilibria[l];
  }
  BatchBestResponseLearner::Workspace ws;
  batch.SolveInto(jobs, ws);
  for (std::size_t l = 0; l < 2; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(jobs[l].status.ok());
    auto scalar = BestResponseLearner::Create(LaneParams(l)).value();
    BestResponseLearner::Workspace sws;
    Equilibrium expected;
    ASSERT_TRUE(scalar.SolveInto(sws, expected).ok());
    ExpectEquilibriumIdentical(equilibria[l], expected);
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline identity: PlanEpochInto with the block-claiming batch
// scheduler vs the scalar per-slot path.
// ---------------------------------------------------------------------------

// Runs `epochs` epochs with varying observations and returns a deep copy
// of every epoch's plan buffer.
std::vector<EpochPlanBuffer> RunEpochs(std::size_t num_contents,
                                       std::size_t parallelism,
                                       std::size_t batch_width,
                                       std::size_t epochs,
                                       bool implicit_fpk = false) {
  MfgCpOptions options = FastOptions(parallelism);
  options.batch_width = batch_width;
  options.base_params.grid.implicit_fpk = implicit_fpk;
  auto framework = MakeFramework(num_contents, parallelism, &options);
  std::vector<EpochPlanBuffer> out;
  EpochPlanBuffer buffer;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    EpochObservation obs = MakeObservation(num_contents);
    obs.request_counts.assign(num_contents, 10 + 5 * epoch);
    obs.mean_timeliness.assign(num_contents, 2.5 + 0.25 * epoch);
    EXPECT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
    out.push_back(buffer);
  }
  return out;
}

TEST(BatchEpochEquivalenceTest, BatchWidthsProduceIdenticalPlans) {
  // 11 active contents: does not divide any tested width, so the last
  // block is a remainder batch (3 lanes at width 8, 2 at width 3).
  // Implicit FPK runs on the scalar block body at every width.
  const std::size_t k = 11;
  for (bool implicit_fpk : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "implicit_fpk " << implicit_fpk);
    const std::vector<EpochPlanBuffer> scalar =
        RunEpochs(k, 1, 1, 2, implicit_fpk);
    for (std::size_t width : {std::size_t{2}, std::size_t{3},
                              std::size_t{8}, std::size_t{16}}) {
      SCOPED_TRACE(::testing::Message() << "batch_width " << width);
      const std::vector<EpochPlanBuffer> batched =
          RunEpochs(k, 1, width, 2, implicit_fpk);
      ASSERT_EQ(batched.size(), scalar.size());
      for (std::size_t epoch = 0; epoch < scalar.size(); ++epoch) {
        SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
        ExpectPlanBuffersIdentical(batched[epoch], scalar[epoch]);
      }
    }
  }
}

TEST(BatchEpochEquivalenceTest, BatchedPlansIdenticalAcrossParallelism) {
  const std::size_t k = 11;
  const std::vector<EpochPlanBuffer> serial = RunEpochs(k, 1, 4, 2);
  for (std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "parallelism " << parallelism);
    const std::vector<EpochPlanBuffer> parallel =
        RunEpochs(k, parallelism, 4, 2);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t epoch = 0; epoch < serial.size(); ++epoch) {
      SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
      ExpectPlanBuffersIdentical(parallel[epoch], serial[epoch]);
    }
  }
}

TEST(BatchEpochEquivalenceTest, UnconvergedSlotsShipIdenticalIterates) {
  // Tight iteration cap: lanes that exhaust it leave the batch unconverged
  // and fall onto the scalar relaxed-retry ladder, which must reproduce the
  // scalar slot bit-for-bit. The exhausted lanes' own iterates are pinned
  // by BatchSolverTest.BestResponseBatchMatchesScalarBitwise.
  MfgCpOptions scalar_options = FastOptions(1);
  scalar_options.base_params.learning.max_iterations = 3;
  scalar_options.batch_width = 1;
  MfgCpOptions batch_options = scalar_options;
  batch_options.batch_width = 8;

  auto scalar_framework = MakeFramework(6, 1, &scalar_options);
  auto batch_framework = MakeFramework(6, 1, &batch_options);
  const EpochObservation obs = MakeObservation(6);
  EpochPlanBuffer scalar_buffer;
  EpochPlanBuffer batch_buffer;
  ASSERT_TRUE(scalar_framework.PlanEpochInto(obs, scalar_buffer).ok());
  ASSERT_TRUE(batch_framework.PlanEpochInto(obs, batch_buffer).ok());
  bool any_retried = false;
  for (std::size_t slot = 0; slot < scalar_buffer.num_active; ++slot) {
    if (scalar_buffer.outcomes[slot] == SlotOutcome::kRetried) {
      any_retried = true;
    }
  }
  EXPECT_TRUE(any_retried);
  ExpectPlanBuffersIdentical(batch_buffer, scalar_buffer);
}

#if MFGCP_OBS_ENABLED
// core.mean_field.estimates counts one estimate per (content, time node)
// on both block bodies, so one epoch's delta does not depend on the
// batch width.
TEST(BatchEpochEquivalenceTest, EstimateCounterIsPerContentAndTimeNode) {
  obs::Counter& estimates =
      obs::Registry::Global().GetCounter("core.mean_field.estimates");
  std::vector<std::uint64_t> deltas;
  for (std::size_t width : {std::size_t{1}, std::size_t{8}}) {
    MfgCpOptions options = FastOptions(1);
    options.batch_width = width;
    auto framework = MakeFramework(11, 1, &options);
    EpochPlanBuffer buffer;
    const std::uint64_t before = estimates.Value();
    ASSERT_TRUE(framework.PlanEpochInto(MakeObservation(11), buffer).ok());
    deltas.push_back(estimates.Value() - before);
  }
  EXPECT_GT(deltas[0], 0u);
  EXPECT_EQ(deltas[1], deltas[0]);
}

// The per-content solver histograms observe once per scalar solve or
// sweep, like their counters; the batched solvers time whole K-lane calls
// into the separate *.block_seconds histograms.
TEST(BatchEpochEquivalenceTest, SolverTimersCountPerContentOrPerBlock) {
  // Per solver stage: {per-content timer, its counter, block timer}.
  const char* const names[][3] = {
      {"core.best_response.seconds", "core.best_response.solves",
       "core.best_response.block_seconds"},
      {"core.hjb.sweep_seconds", "core.hjb.sweeps", "core.hjb.block_seconds"},
      {"core.fpk.sweep_seconds", "core.fpk.sweeps", "core.fpk.block_seconds"},
  };
  obs::Registry& registry = obs::Registry::Global();
  const auto read = [&] {
    std::vector<std::array<std::uint64_t, 3>> values;
    for (const auto& stage : names) {
      values.push_back({registry.GetHistogram(stage[0]).Count(),
                        registry.GetCounter(stage[1]).Value(),
                        registry.GetHistogram(stage[2]).Count()});
    }
    return values;
  };
  const std::size_t k = 11;
  for (std::size_t width : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "batch_width " << width);
    MfgCpOptions options = FastOptions(1);
    options.batch_width = width;
    auto framework = MakeFramework(k, 1, &options);
    const auto before = read();
    EpochPlanBuffer buffer;
    ASSERT_TRUE(framework.PlanEpochInto(MakeObservation(k), buffer).ok());
    const auto after = read();
    // Fault-free and converged on the first try: no slot reaches the
    // scalar ladder.
    ASSERT_EQ(buffer.num_active, k);
    for (std::size_t slot = 0; slot < k; ++slot) {
      ASSERT_EQ(buffer.outcomes[slot], SlotOutcome::kSolved);
    }
    for (std::size_t s = 0; s < std::size(names); ++s) {
      SCOPED_TRACE(names[s][0]);
      const std::uint64_t timed = after[s][0] - before[s][0];
      const std::uint64_t counted = after[s][1] - before[s][1];
      const std::uint64_t blocks = after[s][2] - before[s][2];
      EXPECT_GT(counted, 0u);
      EXPECT_EQ(timed, width == 1 ? counted : 0u);
      EXPECT_EQ(blocks > 0, width > 1);
    }
    if (width > 1) {
      // One worker: full blocks of `width` slots plus a remainder block.
      EXPECT_EQ(after[0][2] - before[0][2], (k + width - 1) / width);
      EXPECT_EQ(after[0][1] - before[0][1], k);
    }
  }
}
#endif

TEST(BatchEpochEquivalenceTest, RejectsZeroBatchWidth) {
  MfgCpOptions options = FastOptions(1);
  options.batch_width = 0;
  auto catalog = content::Catalog::CreateUniform(3, 100.0).value();
  auto popularity = content::PopularityModel::CreateZipf(3, 0.8).value();
  auto timeliness =
      content::TimelinessModel::Create(content::TimelinessParams()).value();
  EXPECT_FALSE(
      MfgCpFramework::Create(options, catalog, popularity, timeliness).ok());
}

}  // namespace
}  // namespace mfg::core
