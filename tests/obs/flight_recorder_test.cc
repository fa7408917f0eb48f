#include "obs/flight_recorder.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

// FlightJournal semantics: ring retention/wraparound, scoped vs explicit
// coordinates, the enable toggle, per-(epoch, content) collection, and the
// kBlockClaim exclusion. The class is compiled in every configuration;
// only the MFG_FLIGHT_* macros strip under -DMFGCP_OBS=OFF, so the
// macro-specific tests assert "records" or "inert" per configuration.

namespace mfg::obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }

  static void Reset() {
    FlightJournal::Get().SetEnabled(true);
    FlightJournal::Get().ResetForTesting(
        FlightJournal::kDefaultRingCapacity);
  }
};

TEST_F(FlightRecorderTest, RecordScopedUsesAmbientCoordinates) {
  {
    FlightScope scope(3, 1);
    FlightJournal::Get().RecordScoped(FlightEventType::kIteration, 0, 7, 4,
                                      0.5, 0.25);
  }
  std::vector<FlightEvent> events;
  EXPECT_EQ(FlightJournal::Get().CollectInto(3, 7, events), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].epoch, 3u);
  EXPECT_EQ(events[0].content, 7u);
  EXPECT_EQ(events[0].attempt, 1u);
  EXPECT_EQ(events[0].iter, 4u);
  EXPECT_EQ(events[0].type, FlightEventType::kIteration);
  EXPECT_EQ(events[0].v0, 0.5);
  EXPECT_EQ(events[0].v1, 0.25);
}

TEST_F(FlightRecorderTest, RecordScopedIsANoOpWithoutScope) {
  FlightJournal::Get().RecordScoped(FlightEventType::kIteration, 0, 7, 0,
                                    0.0, 0.0);
  std::vector<FlightEvent> events;
  EXPECT_EQ(FlightJournal::Get().CollectInto(0, 7, events), 0u);
  EXPECT_TRUE(events.empty());
}

TEST_F(FlightRecorderTest, RingWraparoundKeepsTheLastEvents) {
  FlightJournal::Get().ResetForTesting(8);
  FlightScope scope(0, 0);
  for (std::uint32_t i = 0; i < 20; ++i) {
    FlightJournal::Get().RecordScoped(FlightEventType::kIteration, 0, 1, i,
                                      0.0, 0.0);
  }
  std::vector<FlightEvent> events;
  EXPECT_EQ(FlightJournal::Get().CollectInto(0, 1, events), 8u);
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].iter, 12u + i);  // The last 8 of 0..19, in order.
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
}

TEST_F(FlightRecorderTest, CollectFiltersByEpochAndContent) {
  FlightScope scope(2, 0);
  FlightJournal& journal = FlightJournal::Get();
  journal.RecordScoped(FlightEventType::kIteration, 0, 1, 0, 0.0, 0.0);
  journal.RecordScoped(FlightEventType::kIteration, 0, 2, 0, 0.0, 0.0);
  journal.RecordAt(FlightEventType::kIteration, 0, 3, 1, 0, 0, 0.0, 0.0);
  std::vector<FlightEvent> events;
  EXPECT_EQ(journal.CollectInto(2, 1, events), 1u);
  EXPECT_EQ(journal.CollectInto(2, 2, events), 1u);
  EXPECT_EQ(journal.CollectInto(3, 1, events), 1u);
  EXPECT_EQ(journal.CollectInto(2, 9, events), 0u);
  EXPECT_EQ(events.size(), 3u);  // CollectInto appends.
}

TEST_F(FlightRecorderTest, BlockClaimIsExcludedFromCollection) {
  FlightJournal& journal = FlightJournal::Get();
  journal.RecordAt(FlightEventType::kBlockClaim, 0, 1, 5, 0, 8, 0.0, 0.0);
  journal.RecordAt(FlightEventType::kLadder, 1, 1, 5, 2, 0, 2.0, 0.0);
  std::vector<FlightEvent> events;
  EXPECT_EQ(journal.CollectInto(1, 5, events), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FlightEventType::kLadder);
}

TEST_F(FlightRecorderTest, RecordAtIgnoresAmbientScope) {
  FlightScope scope(9, 9);
  FlightJournal::Get().RecordAt(FlightEventType::kFaultInjected, 2, 4, 6, 1,
                                0, 0.0, 0.0);
  std::vector<FlightEvent> events;
  ASSERT_EQ(FlightJournal::Get().CollectInto(4, 6, events), 1u);
  EXPECT_EQ(events[0].epoch, 4u);
  EXPECT_EQ(events[0].content, 6u);
  EXPECT_EQ(events[0].attempt, 1u);
  EXPECT_EQ(events[0].detail, 2u);
}

TEST_F(FlightRecorderTest, ScopesNestAndRestore) {
  FlightJournal& journal = FlightJournal::Get();
  FlightScope outer(1, 0);
  {
    FlightScope inner(2, 3);
    journal.RecordScoped(FlightEventType::kIteration, 0, 0, 0, 0.0, 0.0);
  }
  journal.RecordScoped(FlightEventType::kIteration, 0, 0, 1, 0.0, 0.0);
  std::vector<FlightEvent> events;
  ASSERT_EQ(journal.CollectInto(2, 0, events), 1u);
  EXPECT_EQ(events[0].attempt, 3u);
  events.clear();
  ASSERT_EQ(journal.CollectInto(1, 0, events), 1u);
  EXPECT_EQ(events[0].attempt, 0u);
  EXPECT_EQ(events[0].iter, 1u);
}

TEST_F(FlightRecorderTest, MacroRecordsUnderScope) {
  MFG_FLIGHT_SCOPE(5, 0);
  MFG_FLIGHT_EVENT(kHjbSweep, 0, 11, 0, 4.0, 1.5);
  std::vector<FlightEvent> events;
#if MFGCP_OBS_ENABLED
  ASSERT_EQ(FlightJournal::Get().CollectInto(5, 11, events), 1u);
  EXPECT_EQ(events[0].type, FlightEventType::kHjbSweep);
  EXPECT_EQ(events[0].v0, 4.0);
  EXPECT_EQ(events[0].v1, 1.5);
#else
  // Stripped build: the macros must be inert.
  EXPECT_EQ(FlightJournal::Get().CollectInto(5, 11, events), 0u);
#endif
}

TEST_F(FlightRecorderTest, DisabledRecordingSkipsPayloadEvaluation) {
  FlightJournal::Get().SetEnabled(false);
  MFG_FLIGHT_SCOPE(0, 0);
  int evaluations = 0;
  auto payload = [&evaluations]() {
    ++evaluations;
    return 1.0;
  };
  (void)payload;
  MFG_FLIGHT_EVENT(kIteration, 0, 0, 0, payload(), 0.0);
  EXPECT_EQ(evaluations, 0);
  std::vector<FlightEvent> events;
  EXPECT_EQ(FlightJournal::Get().CollectInto(0, 0, events), 0u);
}

TEST_F(FlightRecorderTest, FlightMaxAbsIsTheSupNorm) {
  const std::vector<double> values = {-3.0, 1.0, 2.5};
  EXPECT_EQ(FlightMaxAbs(std::span<const double>(values)), 3.0);
  EXPECT_EQ(FlightMaxAbs(std::span<const double>()), 0.0);
}

TEST(FlightEventTypeNameTest, NamesEveryType) {
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kBlockClaim),
            "block_claim");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kAttemptBegin),
            "attempt_begin");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kIteration), "iteration");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kHjbSweep), "hjb_sweep");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kFpkSweep), "fpk_sweep");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kDivergence),
            "divergence");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kSolveEnd), "solve_end");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kLadder), "ladder");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kFaultInjected), "fault");
}

}  // namespace
}  // namespace mfg::obs
