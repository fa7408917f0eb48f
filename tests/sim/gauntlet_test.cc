// Gauntlet-level guarantees: the determinism contract extended to request
// replay (bit-identical statistics at any planner parallelism and batch
// width), the offline bound's dominance over the other static schemes,
// the kReplan fault seam, and the CSV export consumed by
// scripts/check_gauntlet.py.

#include "sim/gauntlet.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_injection.h"

namespace mfg::sim {
namespace {

// Small but non-trivial: 20k requests over 12 contents, 5 MFG replans.
GauntletOptions SmallGauntlet() {
  GauntletOptions options;
  options.stream.num_contents = 12;
  options.stream.num_requests = 20000;
  options.stream.arrival_rate = 200.0;
  options.stream.seed = 21;
  options.engine.num_contents = 12;
  options.engine.epoch_period = 18.0;
  options.capacities = {2, 4};
  // The FastOptions planner shape of tests/core/epoch_test_util.h — small
  // enough to stay fast, converges cleanly at these counts.
  options.plan.planner.base_params.grid.num_q_nodes = 41;
  options.plan.planner.base_params.grid.num_time_steps = 50;
  options.plan.planner.base_params.learning.max_iterations = 20;
  return options;
}

TEST(GauntletTest, SchemeNamesRoundTrip) {
  for (GauntletScheme scheme : AllGauntletSchemes()) {
    GauntletScheme parsed;
    ASSERT_TRUE(ParseGauntletScheme(GauntletSchemeName(scheme), parsed));
    EXPECT_EQ(parsed, scheme);
  }
  GauntletScheme parsed;
  EXPECT_FALSE(ParseGauntletScheme("ARC", parsed));
}

TEST(GauntletTest, RunsEverySchemeAtEveryCapacity) {
  auto outcomes = RunGauntlet(SmallGauntlet());
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  EXPECT_EQ(outcomes->size(), AllGauntletSchemes().size() * 2);
  for (const GauntletOutcome& o : *outcomes) {
    EXPECT_EQ(o.stats.requests, 20000u) << o.scheme;
    EXPECT_EQ(o.stats.hits + o.stats.misses, o.stats.requests) << o.scheme;
    EXPECT_GE(o.stats.HitRatio(), 0.0);
    EXPECT_LE(o.stats.HitRatio(), 1.0);
  }
}

TEST(GauntletTest, StatisticsAreBitIdenticalAcrossPlannerParallelism) {
  // The replay loop is single-threaded and RNG-free; all parallelism
  // lives behind PlanEpochInto, whose plans are bit-identical at any pool
  // width and batch width. The gauntlet statistics must inherit that.
  GauntletOptions options = SmallGauntlet();
  options.schemes = {GauntletScheme::kMfgPlan};
  options.capacities = {3};

  auto reference = RunGauntlet(options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->size(), 1u);
  const RequestReplayStats& ref = (*reference)[0].stats;
  EXPECT_GT(ref.replans, 0u);

  for (std::size_t parallelism : {2u, 8u}) {
    for (std::size_t batch_width : {1u, 4u, 8u}) {
      options.plan.planner.parallelism = parallelism;
      options.plan.planner.batch_width = batch_width;
      auto run = RunGauntlet(options);
      ASSERT_TRUE(run.ok()) << run.status();
      const RequestReplayStats& stats = (*run)[0].stats;
      EXPECT_EQ(stats.hits, ref.hits)
          << "parallelism " << parallelism << " batch " << batch_width;
      EXPECT_EQ(stats.misses, ref.misses);
      EXPECT_EQ(stats.replans, ref.replans);
      EXPECT_EQ(stats.replan_faults, ref.replan_faults);
      // Bit-identical accumulations, not just close.
      EXPECT_EQ(stats.total_delay, ref.total_delay);
      EXPECT_EQ(stats.backhaul_mb, ref.backhaul_mb);
    }
  }
}

TEST(GauntletTest, OfflineBoundDominatesStaticMostPopular) {
  GauntletOptions options = SmallGauntlet();
  options.schemes = {GauntletScheme::kStaticMostPopular,
                     GauntletScheme::kOfflineBound};
  auto outcomes = RunGauntlet(options);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  ASSERT_EQ(outcomes->size(), 4u);
  for (std::size_t i = 0; i + 1 < outcomes->size(); i += 2) {
    const GauntletOutcome& mpc = (*outcomes)[i];
    const GauntletOutcome& opt = (*outcomes)[i + 1];
    ASSERT_EQ(mpc.scheme, "MPC");
    ASSERT_EQ(opt.scheme, "OPT");
    ASSERT_EQ(mpc.capacity, opt.capacity);
    EXPECT_GE(opt.stats.hits, mpc.stats.hits)
        << "capacity " << mpc.capacity;
  }
}

TEST(GauntletTest, MfgPlanNeedsAnEpochPeriod) {
  GauntletOptions options = SmallGauntlet();
  options.schemes = {GauntletScheme::kMfgPlan};
  options.engine.epoch_period = 0.0;
  EXPECT_FALSE(RunGauntlet(options).ok());
}

TEST(GauntletTest, RejectsMismatchedShapes) {
  GauntletOptions options = SmallGauntlet();
  options.engine.num_contents = 7;
  EXPECT_FALSE(RunGauntlet(options).ok());

  options = SmallGauntlet();
  options.capacities.clear();
  EXPECT_FALSE(RunGauntlet(options).ok());
}

TEST(GauntletTest, ReplanFaultsDegradeTheMfgScheme) {
  GauntletOptions options = SmallGauntlet();
  options.schemes = {GauntletScheme::kMfgPlan};
  options.capacities = {3};

  core::faults::FaultPlan plan;
  core::faults::FaultSpec spec;
  spec.site = core::faults::FaultSite::kReplan;
  spec.epoch = 2;
  spec.content = 0;
  plan.Add(spec);
  core::faults::ScopedFaultInjection arm(plan);

  auto outcomes = RunGauntlet(options);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  const RequestReplayStats& stats = (*outcomes)[0].stats;
  EXPECT_EQ(stats.replan_faults, 1u);
  EXPECT_GT(stats.replans, stats.replan_faults);
}

TEST(GauntletTest, CsvExportIsWellFormed) {
  GauntletOptions options = SmallGauntlet();
  options.schemes = {GauntletScheme::kLru, GauntletScheme::kOfflineBound};
  auto outcomes = RunGauntlet(options);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();

  const std::string csv = GauntletOutcomesCsv(*outcomes);
  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "scheme,capacity,requests,hits,misses,hit_ratio,mean_delay,"
            "backhaul_mb,backhaul_rate,replans,replan_faults,replay_seconds");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, outcomes->size());

  const std::string path = ::testing::TempDir() + "gauntlet_test.csv";
  ASSERT_TRUE(WriteGauntletCsv(path, *outcomes).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), csv);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mfg::sim
