// Self-tests of the benchmark's own percentile, digest and span logic.
// Run through `python3 perfbench/run.py --selftest`.

#include <chrono>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "spans.h"

namespace mfg::perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> samples = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(samples, 90), 3.7);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, ClampsOutOfRangeRanks) {
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, -10), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, 250), 2.0);
}

TEST(DigestTest, IsBitExactAndOrderSensitive) {
  const std::vector<double> a = {0.25, 0.5, 0.75};
  std::vector<double> b = a;
  EXPECT_EQ(DigestDoubles(a, kDigestSeed), DigestDoubles(b, kDigestSeed));
  b[1] = std::nextafter(b[1], 1.0);  // One ulp.
  EXPECT_NE(DigestDoubles(a, kDigestSeed), DigestDoubles(b, kDigestSeed));
  const std::vector<double> swapped = {0.5, 0.25, 0.75};
  EXPECT_NE(DigestDoubles(a, kDigestSeed), DigestDoubles(swapped, kDigestSeed));
  // +0.0 and -0.0 compare equal but are different surfaces.
  EXPECT_NE(DigestDoubles(std::vector<double>{0.0}, kDigestSeed),
            DigestDoubles(std::vector<double>{-0.0}, kDigestSeed));
}

TEST(DigestTest, ChainsThroughTheSeed) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {2.0};
  const std::vector<double> ab = {1.0, 2.0};
  EXPECT_EQ(DigestDoubles(b, DigestDoubles(a, kDigestSeed)),
            DigestDoubles(ab, kDigestSeed));
  EXPECT_NE(DigestValue(1, kDigestSeed), DigestValue(2, kDigestSeed));
}

std::vector<Span> Spans(std::initializer_list<Span> spans) { return spans; }

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  // Parent [0, 100); children [10, 30) and [20, 50) overlap -> 40 covered;
  // a grandchild does not count against the root; a child sticking out of
  // the parent is clipped.
  const auto spans = Spans({{"root", 0, 100, -1, -1},
                            {"a", 10, 30, 0, -1},
                            {"b", 20, 50, 0, -1},
                            {"grand", 12, 14, 1, -1},
                            {"late", 90, 120, 0, -1}});
  EXPECT_NEAR(SelfSeconds(spans, 0), 50e-9, 1e-15);
  EXPECT_NEAR(SelfSeconds(spans, 1), 18e-9, 1e-15);
  EXPECT_NEAR(SelfSeconds(spans, 3), 2e-9, 1e-15);
}

TEST(SpanTest, DisabledRecorderKeepsNothing) {
  SpanRecorder recorder("test");
  const std::int32_t id = recorder.Begin("x");
  recorder.End(id);
  EXPECT_EQ(id, SpanRecorder::kNone);
  EXPECT_TRUE(recorder.spans().empty());
  recorder.SetEnabled(true);
  {
    ScopedSpan outer(recorder, "outer");
    ScopedSpan inner(recorder, "inner", outer.id(), 7);
  }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[1].epoch, 7);
  const auto totals = recorder.Totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].name, "outer");
  EXPECT_LE(totals[0].self_s, totals[0].total_s);
}

}  // namespace
}  // namespace mfg::perfbench
