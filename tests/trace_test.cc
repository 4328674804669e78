// Copyright 2026 the pdblb authors. MIT license.
//
// Tests for trace-driven workloads (paper Section 4, "use of real-life
// database traces [18]"): text round-trip, parsing errors, synthetic trace
// generation, and replay into a cluster — including the key property that
// two strategies can be compared under an identical arrival sequence.

#include <gtest/gtest.h>

#include <cstdio>

#include "engine/cluster.h"
#include "workload/trace.h"

namespace pdblb {
namespace {

// ------------------------------------------------------------ text format

TEST(TraceFormatTest, RoundTripsAllClasses) {
  Trace trace;
  trace.Add({10.0, TraceClass::kJoin, 0});
  trace.Add({20.5, TraceClass::kScan, 0});
  trace.Add({30.25, TraceClass::kUpdate, 0});
  trace.Add({40.125, TraceClass::kMultiwayJoin, 0});
  trace.Add({50.0, TraceClass::kOltp, 7});

  Trace parsed;
  ASSERT_TRUE(Trace::FromText(trace.ToText(), &parsed).ok());
  ASSERT_EQ(parsed.size(), trace.size());
  EXPECT_EQ(parsed.events(), trace.events());
}

TEST(TraceFormatTest, ParserSortsByArrival) {
  Trace parsed;
  ASSERT_TRUE(
      Trace::FromText("30 join\n10 scan\n20 oltp:3\n", &parsed).ok());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.events()[0].arrival_ms, 10.0);
  EXPECT_EQ(parsed.events()[0].cls, TraceClass::kScan);
  EXPECT_DOUBLE_EQ(parsed.events()[2].arrival_ms, 30.0);
}

TEST(TraceFormatTest, CommentsAndBlankLinesIgnored) {
  Trace parsed;
  ASSERT_TRUE(
      Trace::FromText("# header\n\n5 join\n# tail\n", &parsed).ok());
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(TraceFormatTest, RejectsMalformedLines) {
  Trace parsed;
  EXPECT_FALSE(Trace::FromText("abc join\n", &parsed).ok());
  EXPECT_FALSE(Trace::FromText("10 zorp\n", &parsed).ok());
  EXPECT_FALSE(Trace::FromText("10 oltp:x\n", &parsed).ok());
  EXPECT_FALSE(Trace::FromText("-5 join\n", &parsed).ok());
  EXPECT_FALSE(Trace::FromText("10 oltp:3x\n", &parsed).ok());
  EXPECT_FALSE(Trace::FromText("10 oltp:+3\n", &parsed).ok());
  EXPECT_FALSE(Trace::FromText("10 join extra\n", &parsed).ok());
}

TEST(TraceFormatTest, FileRoundTrip) {
  Trace trace;
  trace.Add({1.0, TraceClass::kJoin, 0});
  trace.Add({2.0, TraceClass::kOltp, 2});
  std::string path = testing::TempDir() + "/pdblb_trace_test.txt";
  ASSERT_TRUE(trace.WriteFile(path).ok());
  Trace loaded;
  ASSERT_TRUE(Trace::ReadFile(path, &loaded).ok());
  EXPECT_EQ(loaded.events(), trace.events());
  std::remove(path.c_str());
}

TEST(TraceFormatTest, ReadMissingFileFails) {
  Trace loaded;
  EXPECT_FALSE(Trace::ReadFile("/nonexistent/trace.txt", &loaded).ok());
}

// --------------------------------------------------------------- synthesis

TEST(TraceSynthesisTest, DeterministicPerSeed) {
  Trace a = SynthesizeTrace(7, 10000.0, 1.0, 0.5, 0.0, 0.0, {0, 1}, 10.0);
  Trace b = SynthesizeTrace(7, 10000.0, 1.0, 0.5, 0.0, 0.0, {0, 1}, 10.0);
  EXPECT_EQ(a.events(), b.events());
  Trace c = SynthesizeTrace(8, 10000.0, 1.0, 0.5, 0.0, 0.0, {0, 1}, 10.0);
  EXPECT_NE(a.events(), c.events());
}

TEST(TraceSynthesisTest, RatesRoughlyHonored) {
  // 2 joins/s over 100 s -> about 200 events (Poisson, generous margins).
  Trace t = SynthesizeTrace(3, 100000.0, 2.0, 0.0, 0.0, 0.0, {}, 0.0);
  EXPECT_GT(t.size(), 120u);
  EXPECT_LT(t.size(), 300u);
  for (const TraceEvent& e : t.events()) {
    EXPECT_EQ(e.cls, TraceClass::kJoin);
    EXPECT_LT(e.arrival_ms, 100000.0);
  }
}

TEST(TraceSynthesisTest, SortedByArrival) {
  Trace t = SynthesizeTrace(5, 20000.0, 1.0, 1.0, 1.0, 0.5, {0, 1, 2}, 5.0);
  const auto& ev = t.events();
  for (size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].arrival_ms, ev[i].arrival_ms);
  }
}

// ------------------------------------------------------------------ replay

SystemConfig ReplayConfig() {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.join_query.arrival_rate_per_pe_qps = 0.0;  // trace replaces sources
  cfg.warmup_ms = 500.0;
  cfg.measurement_ms = 8000.0;
  return cfg;
}

TEST(TraceReplayTest, DrivesClusterFromTrace) {
  Trace trace = SynthesizeTrace(11, 8000.0, 1.0, 0.5, 0.0, 0.0, {0}, 20.0);
  SystemConfig cfg = ReplayConfig();
  // OLTP trace events need the per-node OLTP relations in the schema.
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kAllNodes;
  Cluster cluster(cfg);
  cluster.SetTrace(trace);
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.joins_completed, 0);
  EXPECT_GT(r.scans_completed, 0);
  EXPECT_GT(r.oltp_completed, 0);
}

TEST(TraceReplayTest, IdenticalTraceIdenticalResults) {
  Trace trace = SynthesizeTrace(13, 8000.0, 1.5, 0.0, 0.0, 0.0, {}, 0.0);
  auto run = [&] {
    Cluster cluster(ReplayConfig());
    cluster.SetTrace(trace);
    return cluster.Run();
  };
  MetricsReport r1 = run();
  MetricsReport r2 = run();
  EXPECT_DOUBLE_EQ(r1.join_rt_ms, r2.join_rt_ms);
  EXPECT_EQ(r1.joins_completed, r2.joins_completed);
}

TEST(TraceReplayTest, ComparesStrategiesUnderIdenticalArrivals) {
  // The point of trace-driven evaluation: both strategies see the *same*
  // arrival sequence, so the comparison has no arrival-process noise.
  Trace trace = SynthesizeTrace(17, 8000.0, 2.5, 0.0, 0.0, 0.0, {}, 0.0);
  auto run = [&](StrategyConfig strategy) {
    SystemConfig cfg = ReplayConfig();
    cfg.strategy = strategy;
    Cluster cluster(cfg);
    cluster.SetTrace(trace);
    return cluster.Run();
  };
  MetricsReport dynamic = run(strategies::OptIOCpu());
  MetricsReport random_static = run(strategies::PsuOptRandom());
  EXPECT_GT(dynamic.joins_completed, 0);
  EXPECT_GT(random_static.joins_completed, 0);
  // Same arrivals; only queries still in flight at the window edge may
  // differ between the strategies.
  EXPECT_NEAR(static_cast<double>(dynamic.joins_completed),
              static_cast<double>(random_static.joins_completed), 5.0);
}

}  // namespace
}  // namespace pdblb
