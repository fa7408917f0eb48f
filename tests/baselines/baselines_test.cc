#include <gtest/gtest.h>

#include "baselines/mfg_no_sharing.h"
#include "baselines/most_popular.h"
#include "baselines/random_replacement.h"
#include "baselines/udcs.h"

namespace mfg::baselines {
namespace {

core::PolicyContext MakeContext() {
  core::PolicyContext ctx;
  ctx.time = 0.2;
  ctx.content = 1;
  ctx.remaining = 60.0;
  ctx.content_size = 100.0;
  ctx.popularity = 0.3;
  ctx.popularity_rank = 0.1;
  ctx.timeliness = 2.0;
  ctx.num_requests = 5.0;
  ctx.overlap_estimate = 0.2;
  return ctx;
}

TEST(RandomReplacementTest, RatesUniformInUnitInterval) {
  RandomReplacementPolicy policy;
  common::Rng rng(1);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = policy.Rate(MakeContext(), rng);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
  EXPECT_EQ(policy.name(), "RR");
}

TEST(RandomReplacementTest, IgnoresContext) {
  RandomReplacementPolicy policy;
  common::Rng rng_a(7);
  common::Rng rng_b(7);
  core::PolicyContext rich = MakeContext();
  core::PolicyContext poor;
  EXPECT_DOUBLE_EQ(policy.Rate(rich, rng_a), policy.Rate(poor, rng_b));
}

TEST(MostPopularTest, CachesHeadFullyIgnoresTail) {
  MostPopularPolicy policy(0.3);
  common::Rng rng(1);
  core::PolicyContext ctx = MakeContext();
  ctx.popularity_rank = 0.0;  // Most popular.
  EXPECT_DOUBLE_EQ(policy.Rate(ctx, rng), 1.0);
  ctx.popularity_rank = 0.29;
  EXPECT_DOUBLE_EQ(policy.Rate(ctx, rng), 1.0);
  ctx.popularity_rank = 0.31;
  EXPECT_DOUBLE_EQ(policy.Rate(ctx, rng), 0.0);
  ctx.popularity_rank = 0.9;
  EXPECT_DOUBLE_EQ(policy.Rate(ctx, rng), 0.0);
  EXPECT_EQ(policy.name(), "MPC");
}

TEST(MostPopularTest, TopFractionClamped) {
  MostPopularPolicy zero(0.0);
  EXPECT_GT(zero.top_fraction(), 0.0);
  MostPopularPolicy over(2.0);
  EXPECT_DOUBLE_EQ(over.top_fraction(), 1.0);
}

TEST(UdcsTest, MorePopularMoreCaching) {
  UdcsPolicy policy;
  common::Rng rng(1);
  core::PolicyContext hot = MakeContext();
  hot.popularity = 0.8;
  core::PolicyContext cold = MakeContext();
  cold.popularity = 0.05;
  EXPECT_GT(policy.Rate(hot, rng), policy.Rate(cold, rng));
  EXPECT_EQ(policy.name(), "UDCS");
}

TEST(UdcsTest, OverlapSuppressesCaching) {
  UdcsPolicy policy;
  common::Rng rng(1);
  core::PolicyContext unique = MakeContext();
  unique.overlap_estimate = 0.0;
  core::PolicyContext duplicated = MakeContext();
  duplicated.overlap_estimate = 1.0;
  EXPECT_GT(policy.Rate(unique, rng), policy.Rate(duplicated, rng));
}

TEST(UdcsTest, FullCacheNoMoreCaching) {
  UdcsPolicy policy;
  common::Rng rng(1);
  core::PolicyContext full = MakeContext();
  full.remaining = 0.0;  // Nothing left to cache.
  full.overlap_estimate = 0.0;
  EXPECT_DOUBLE_EQ(policy.Rate(full, rng), 0.0);
}

TEST(UdcsTest, RateAlwaysInUnitInterval) {
  UdcsParams params;
  params.hit_gain = 100.0;
  UdcsPolicy policy(params);
  common::Rng rng(1);
  core::PolicyContext ctx = MakeContext();
  ctx.popularity = 1.0;
  ctx.remaining = 100.0;
  const double x = policy.Rate(ctx, rng);
  EXPECT_GE(x, 0.0);
  EXPECT_LE(x, 1.0);
}

core::MfgParams FastParams() {
  core::MfgParams params;
  params.grid.num_q_nodes = 41;
  params.grid.num_time_steps = 50;
  params.learning.max_iterations = 20;
  return params;
}

TEST(MfgNoSharingTest, DisableSharingFlagsOff) {
  core::MfgParams params = FastParams();
  EXPECT_TRUE(params.sharing_enabled);
  EXPECT_FALSE(DisableSharing(params).sharing_enabled);
}

TEST(MfgNoSharingTest, SolvesAndNamesPolicy) {
  auto policy = SolveMfgNoSharingPolicy(FastParams());
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ((*policy)->name(), "MFG");
  common::Rng rng(1);
  const double x = (*policy)->Rate(MakeContext(), rng);
  EXPECT_GE(x, 0.0);
  EXPECT_LE(x, 1.0);
}

TEST(MfgNoSharingTest, EquilibriumHasNoSharingBenefit) {
  auto eq = SolveMfgNoSharingEquilibrium(FastParams());
  ASSERT_TRUE(eq.ok());
  for (const auto& mf : eq->mean_field) {
    EXPECT_DOUBLE_EQ(mf.sharing_benefit, 0.0);
  }
}

TEST(FactoryTest, MakersProduceNamedPolicies) {
  EXPECT_EQ(MakeRandomReplacement()->name(), "RR");
  EXPECT_EQ(MakeMostPopular()->name(), "MPC");
  EXPECT_EQ(MakeUdcs()->name(), "UDCS");
}

}  // namespace
}  // namespace mfg::baselines
