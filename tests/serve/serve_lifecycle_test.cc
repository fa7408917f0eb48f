#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "serve/serve_loop.h"
#include "serve_test_util.h"
#include "sim/request_stream.h"

// ServeLoop lifecycle: Stop() must drain (never strand) a posted or
// in-flight plan round before joining the planner — so destruction during
// an async plan cannot touch freed buffers — and a stopped loop must be
// reusable: the next Run respawns the planner like a daemon reload.

namespace mfg::serve {
namespace {

sim::RequestStream MakeStream() {
  auto stream = sim::GenerateRequestStream(testing::SmallStreamOptions());
  EXPECT_TRUE(stream.ok()) << stream.status();
  return std::move(stream).value();
}

TEST(ServeLoopLifecycleTest, StopThenRunRespawnsThePlanner) {
  const sim::RequestStream stream = MakeStream();
  auto loop = ServeLoop::Create(testing::SmallServeOptions());
  ASSERT_TRUE(loop.ok()) << loop.status();

  ServeStats first;
  ASSERT_TRUE((*loop)->Run(stream, first).ok());
  EXPECT_GE(first.publications, 3u);
  EXPECT_EQ(first.requests.requests, stream.size());

  (*loop)->Stop();
  (*loop)->Stop();  // Idempotent.

  // A stopped loop still serves — with a fresh planner thread. The hook's
  // carry-forward state persists, so the second pass replans and
  // publishes like the first.
  ServeStats second;
  ASSERT_TRUE((*loop)->Run(stream, second).ok());
  EXPECT_GE(second.publications, 3u);
  EXPECT_EQ(second.requests.requests, first.requests.requests);
  EXPECT_EQ(second.ticks, first.ticks);
  EXPECT_EQ(second.skipped_plan_rounds, 0u);
}

TEST(ServeLoopLifecycleTest, StopDuringInFlightPlanDrainsBeforeJoining) {
  const sim::RequestStream stream = MakeStream();
  ServeOptions options = testing::SmallServeOptions();
  // Slow planner + async deadline: the boundary posts its round and keeps
  // serving, so the round is in flight when Stop() lands.
  options.synthetic_plan_delay_ms = 120.0;
  options.plan_deadline_ms = 1000.0;
  // Handshake with the planner thread instead of a wall-clock guess: the
  // first round parks in on_plan — inside the round, before the planner
  // hands it back — until the test calls Stop(), so Stop() lands on a
  // posted, uncollected round at any load. Later rounds pass through.
  std::mutex mutex;
  std::condition_variable cv;
  bool in_flight = false;
  bool stopping = false;
  options.on_plan = [&](const core::EpochPlanBuffer&,
                        const core::EpochHealthReport&) {
    std::unique_lock<std::mutex> lock(mutex);
    if (stopping) return;
    in_flight = true;
    cv.notify_all();
    cv.wait(lock, [&] { return stopping; });
  };
  auto loop = ServeLoop::Create(options);
  ASSERT_TRUE(loop.ok()) << loop.status();

  ServeStats stats;
  common::Status run_status;
  std::thread runner([&] { run_status = (*loop)->Run(stream, stats); });
  {
    std::unique_lock<std::mutex> lock(mutex);
    const bool parked = cv.wait_for(lock, std::chrono::seconds(60),
                                    [&] { return in_flight; });
    stopping = true;
    cv.notify_all();
    if (!parked) {
      lock.unlock();
      (*loop)->Stop();
      runner.join();
      FAIL() << "no plan round reached the planner";
    }
  }
  (*loop)->Stop();  // Joins the planner; the parked round finishes first.
  runner.join();
  EXPECT_TRUE(run_status.ok()) << run_status;

  // Boundaries hit after the Stop skipped their rounds instead of
  // hanging on a dead planner.
  EXPECT_GE(stats.plan_rounds, 1u);
  EXPECT_EQ(stats.plan_rounds + stats.skipped_plan_rounds +
                stats.requests.replan_faults,
            stats.requests.replans);

  // The loop remains usable after the interrupted run.
  ServeStats again;
  ASSERT_TRUE((*loop)->Run(stream, again).ok());
  EXPECT_GE(again.publications, 1u);
}

TEST(ServeLoopLifecycleTest, DestructionDuringAsyncPlanIsClean) {
  const sim::RequestStream stream = MakeStream();
  ServeOptions options = testing::SmallServeOptions();
  options.synthetic_plan_delay_ms = 150.0;
  options.plan_deadline_ms = 500.0;
  auto loop = ServeLoop::Create(options);
  ASSERT_TRUE(loop.ok()) << loop.status();

  // Run on this thread until the first boundary posts its job, then let
  // the ServeLoop destructor race the in-flight round: Stop() inside ~
  // ServeLoop joins the planner before the plan buffers die.
  ServeStats stats;
  std::thread runner([&] { (void)(*loop)->Run(stream, stats); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  (*loop)->Stop();
  runner.join();
  (*loop).reset();  // Destructor after an interrupted run: must not hang.
  SUCCEED();
}

}  // namespace
}  // namespace mfg::serve
