// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for workload generation: Poisson arrival rates, cancellation
// and the single-user closed loop.

#include <gtest/gtest.h>

#include "workload/arrivals.h"

namespace pdblb {
namespace {

TEST(ArrivalsTest, PoissonRateIsApproximatelyCorrect) {
  sim::Scheduler sched;
  int64_t count = 0;
  sched.Spawn(PoissonArrivals(sched, sim::Rng(3), /*rate_per_second=*/50.0,
                              [&](int64_t) { ++count; }));
  sched.RunUntil(100000.0);  // 100 s -> expect ~5000 arrivals
  sched.CancelAll();
  EXPECT_GT(count, 4500);
  EXPECT_LT(count, 5500);
}

TEST(ArrivalsTest, SequenceNumbersAreConsecutive) {
  sim::Scheduler sched;
  std::vector<int64_t> seqs;
  sched.Spawn(PoissonArrivals(sched, sim::Rng(3), 100.0,
                              [&](int64_t s) { seqs.push_back(s); }));
  sched.RunUntil(1000.0);
  sched.CancelAll();
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<int64_t>(i));
  }
}

TEST(ArrivalsTest, StopsWhenCancelled) {
  sim::Scheduler sched;
  int64_t count = 0;
  sched.Spawn(PoissonArrivals(sched, sim::Rng(3), 100.0,
                              [&](int64_t) { ++count; }));
  sched.RunUntil(1000.0);
  const int64_t at_cancel = count;
  EXPECT_GT(at_cancel, 0);
  sched.CancelAll();
  EXPECT_EQ(sched.detached_in_flight(), 0u);
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.Run();  // nothing is left to dispatch
  EXPECT_EQ(count, at_cancel) << "an arrival fired after CancelAll";
}

TEST(ArrivalsTest, DeterministicUnderSameSeed) {
  auto run = [](uint64_t seed) {
    sim::Scheduler sched;
    std::vector<SimTime> times;
    sched.Spawn(PoissonArrivals(sched, sim::Rng(seed), 20.0,
                                [&](int64_t) { times.push_back(sched.Now()); }));
    sched.RunUntil(5000.0);
    sched.CancelAll();
    return times;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(ClosedLoopTest, RunsBodySequentially) {
  sim::Scheduler sched;
  std::vector<std::pair<int64_t, SimTime>> log;
  bool done = false;
  auto body = [&](int64_t i) -> sim::Task<> {
    co_await sched.Delay(10.0);
    log.push_back({i, sched.Now()});
  };
  sched.Spawn(ClosedLoop(5, body, &done));
  sched.Run();
  EXPECT_TRUE(done);
  ASSERT_EQ(log.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(log[i].first, i);
    EXPECT_DOUBLE_EQ(log[i].second, (i + 1) * 10.0);  // back to back
  }
}

TEST(ClosedLoopTest, ZeroIterations) {
  sim::Scheduler sched;
  bool done = false;
  sched.Spawn(ClosedLoop(0, [](int64_t) -> sim::Task<> { co_return; }, &done));
  sched.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace pdblb
