#include "core/fault_injection.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "common/status.h"

namespace mfg::core::faults {
namespace {

using ::testing::HasSubstr;

TEST(FaultInjectionTest, SiteNamesRoundTrip) {
  const FaultSite sites[] = {
      FaultSite::kParamsBuild, FaultSite::kRebind,
      FaultSite::kSolve,       FaultSite::kHjbStep,
      FaultSite::kFpkStep,     FaultSite::kNonConvergence,
      FaultSite::kReplan,      FaultSite::kPlanDeadline,
  };
  ASSERT_EQ(std::size(sites), kNumFaultSites);
  for (FaultSite site : sites) {
    FaultSite parsed = FaultSite::kSolve;
    ASSERT_TRUE(ParseFaultSite(FaultSiteName(site), parsed))
        << FaultSiteName(site);
    EXPECT_EQ(parsed, site);
  }
  FaultSite parsed = FaultSite::kHjbStep;
  EXPECT_FALSE(ParseFaultSite("no_such_site", parsed));
  EXPECT_EQ(parsed, FaultSite::kHjbStep);  // Untouched on failure.
}

TEST(FaultInjectionTest, PlanLookupMatchesExactCoordinates) {
  FaultPlan plan;
  FaultSpec spec;
  spec.site = FaultSite::kSolve;
  spec.epoch = 3;
  spec.content = 7;
  plan.Add(spec);
  EXPECT_NE(plan.Find(FaultSite::kSolve, 3, 7), nullptr);
  EXPECT_EQ(plan.Find(FaultSite::kSolve, 3, 6), nullptr);
  EXPECT_EQ(plan.Find(FaultSite::kSolve, 2, 7), nullptr);
  EXPECT_EQ(plan.Find(FaultSite::kHjbStep, 3, 7), nullptr);
}

// A helper mirroring how production code uses the hook: the macro fails
// the enclosing Status-returning function.
common::Status GuardedOperation() {
  MFG_FAULT_POINT(kSolve);
  return common::Status::Ok();
}

TEST(FaultInjectionTest, UnarmedHooksPass) {
  MFG_FAULT_SCOPE(0, 0, 0);
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_FALSE(MFG_FAULT_FORCED(kNonConvergence));
}

TEST(FaultInjectionTest, ArmedHookOutsideScopeNeverFires) {
  FaultPlan plan;
  plan.Add(FaultSpec{});  // kSolve at (0, 0), every attempt.
  ScopedFaultInjection arm(plan);
  // No MFG_FAULT_SCOPE on this thread: direct learner use stays immune.
  EXPECT_TRUE(GuardedOperation().ok());
}

TEST(FaultInjectionTest, ArmedHookFailsAtMatchingCoordinates) {
  FaultPlan plan;
  FaultSpec spec;
  spec.site = FaultSite::kSolve;
  spec.epoch = 2;
  spec.content = 5;
  plan.Add(spec);
  ScopedFaultInjection arm(plan);
  ResetInjectedFaultCount();
  {
    MFG_FAULT_SCOPE(2, 5, 0);
    const common::Status status = GuardedOperation();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), common::StatusCode::kNumericalError);
    EXPECT_THAT(status.message(), HasSubstr("injected fault at solve"));
    EXPECT_THAT(status.message(), HasSubstr("epoch 2"));
    EXPECT_THAT(status.message(), HasSubstr("content 5"));
  }
  {
    MFG_FAULT_SCOPE(2, 4, 0);  // Different content: passes.
    EXPECT_TRUE(GuardedOperation().ok());
  }
  EXPECT_EQ(InjectedFaultCount(), 1u);
}

TEST(FaultInjectionTest, TransientFaultClearsAfterFailAttempts) {
  FaultPlan plan;
  FaultSpec spec;
  spec.fail_attempts = 2;  // Attempts 0 and 1 fail; attempt 2 passes.
  plan.Add(spec);
  ScopedFaultInjection arm(plan);
  for (std::size_t attempt = 0; attempt < 4; ++attempt) {
    MFG_FAULT_SCOPE(0, 0, attempt);
    EXPECT_EQ(GuardedOperation().ok(), attempt >= 2) << "attempt " << attempt;
  }
}

TEST(FaultInjectionTest, InjectedCodePropagates) {
  FaultPlan plan;
  FaultSpec spec;
  spec.code = common::StatusCode::kInvalidArgument;
  plan.Add(spec);
  ScopedFaultInjection arm(plan);
  MFG_FAULT_SCOPE(0, 0, 0);
  EXPECT_EQ(GuardedOperation().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(FaultInjectionTest, ForcedSiteFiresWithoutAnError) {
  FaultPlan plan;
  FaultSpec spec;
  spec.site = FaultSite::kNonConvergence;
  plan.Add(spec);
  ScopedFaultInjection arm(plan);
  MFG_FAULT_SCOPE(0, 0, 0);
  EXPECT_TRUE(MFG_FAULT_FORCED(kNonConvergence));
  EXPECT_FALSE(MFG_FAULT_FORCED(kHjbStep));
}

TEST(FaultInjectionTest, ScopedArmingRestoresThePreviousPlan) {
  FaultPlan outer;
  outer.Add(FaultSpec{});  // kSolve at (0, 0).
  FaultPlan inner;         // Empty: nothing fires while it is armed.
  ScopedFaultInjection arm_outer(outer);
  MFG_FAULT_SCOPE(0, 0, 0);
  EXPECT_FALSE(GuardedOperation().ok());
  {
    ScopedFaultInjection arm_inner(inner);
    EXPECT_TRUE(GuardedOperation().ok());
  }
  EXPECT_FALSE(GuardedOperation().ok());  // Outer plan re-armed.
}

TEST(FaultInjectionTest, FaultScopesNest) {
  FaultPlan plan;
  plan.Add(FaultSpec{});  // kSolve at (0, 0).
  ScopedFaultInjection arm(plan);
  MFG_FAULT_SCOPE(0, 0, 0);
  EXPECT_FALSE(GuardedOperation().ok());
  {
    MFG_FAULT_SCOPE(1, 1, 0);  // Inner scope shadows the coordinates.
    EXPECT_TRUE(GuardedOperation().ok());
  }
  EXPECT_FALSE(GuardedOperation().ok());  // Outer coordinates restored.
}

TEST(FaultPlanFromSeedTest, SameSeedSamePlan) {
  FaultPlan::SeedOptions options;
  options.seed = 42;
  options.num_epochs = 6;
  options.num_contents = 9;
  options.fault_rate = 0.3;
  const FaultPlan a = FaultPlan::FromSeed(options);
  const FaultPlan b = FaultPlan::FromSeed(options);
  ASSERT_EQ(a.specs().size(), b.specs().size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].site, b.specs()[i].site);
    EXPECT_EQ(a.specs()[i].epoch, b.specs()[i].epoch);
    EXPECT_EQ(a.specs()[i].content, b.specs()[i].content);
    EXPECT_EQ(a.specs()[i].fail_attempts, b.specs()[i].fail_attempts);
  }
}

TEST(FaultPlanFromSeedTest, RateZeroIsEmptyRateOneIsFull) {
  FaultPlan::SeedOptions options;
  options.num_epochs = 4;
  options.num_contents = 5;
  options.fault_rate = 0.0;
  EXPECT_TRUE(FaultPlan::FromSeed(options).empty());
  options.fault_rate = 1.0;
  EXPECT_EQ(FaultPlan::FromSeed(options).specs().size(), 20u);
}

TEST(FaultPlanFromSeedTest, RestrictedSitesAreHonored) {
  FaultPlan::SeedOptions options;
  options.num_epochs = 8;
  options.num_contents = 8;
  options.fault_rate = 1.0;
  options.sites = {FaultSite::kHjbStep};
  const FaultPlan plan = FaultPlan::FromSeed(options);
  ASSERT_FALSE(plan.empty());
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_EQ(spec.site, FaultSite::kHjbStep);
  }
}

}  // namespace
}  // namespace mfg::core::faults
