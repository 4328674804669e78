// Copyright 2026 the pdblb authors. MIT license.
//
// Tests for trace-driven workloads (paper Section 4, "use of real-life
// database traces [18]"): text round-trip, parsing errors, synthetic trace
// generation, and replay into a cluster — including the key property that
// two strategies can be compared under an identical arrival sequence.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "simkern/scheduler.h"
#include "workload/arrivals.h"
#include "workload/trace.h"

namespace pdblb {
namespace {

// ------------------------------------------------------------ text format

TEST(TraceFormatTest, RoundTripsAllClasses) {
  Trace trace;
  trace.Add({10.0, QueryClass::kJoin, 0});
  trace.Add({20.5, QueryClass::kScan, 0});
  trace.Add({30.25, QueryClass::kUpdate, 0});
  trace.Add({40.125, QueryClass::kMultiwayJoin, 0});
  trace.Add({50.0, QueryClass::kOltp, 7});

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
  EXPECT_EQ(parsed.events()[0].cls, QueryClass::kScan);
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
  trace.Add({1.0, QueryClass::kJoin, 0});
  trace.Add({2.0, QueryClass::kOltp, 2});
  std::string path = testing::TempDir() + "/pdblb_trace_test.txt";
  ASSERT_TRUE(trace.WriteFile(path).ok());
  Trace loaded;
  ASSERT_TRUE(Trace::ReadFile(path, &loaded).ok());
  EXPECT_EQ(loaded.events(), trace.events());
  std::remove(path.c_str());
}

TEST(TraceFormatTest, WriteFailureIsReported) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // A two-event trace fits the stream buffer: the write fails at the flush.
  Trace trace;
  trace.Add({1.0, QueryClass::kJoin, 0});
  trace.Add({2.0, QueryClass::kOltp, 2});
  EXPECT_EQ(trace.WriteFile("/dev/full").code(), StatusCode::kIoError);
}

TEST(TraceFormatTest, ReadMissingFileFails) {
  Trace loaded;
  EXPECT_FALSE(Trace::ReadFile("/nonexistent/trace.txt", &loaded).ok());
}

// --------------------------------------------------------------- synthesis

TEST(TraceSynthesisTest, DeterministicPerSeed) {
  const std::vector<ClassRate> rates = {{QueryClass::kJoin, 1.0},
                                        {QueryClass::kScan, 0.5},
                                        {QueryClass::kOltp, 10.0}};
  Trace a = SynthesizeTrace(7, 10000.0, rates, {0, 1});
  Trace b = SynthesizeTrace(7, 10000.0, rates, {0, 1});
  EXPECT_EQ(a.events(), b.events());
  Trace c = SynthesizeTrace(8, 10000.0, rates, {0, 1});
  EXPECT_NE(a.events(), c.events());
}

TEST(TraceSynthesisTest, RatesRoughlyHonored) {
  // 2 joins/s over 100 s -> about 200 events (Poisson, generous margins).
  Trace t = SynthesizeTrace(3, 100000.0, {{QueryClass::kJoin, 2.0}}, {});
  EXPECT_GT(t.size(), 120u);
  EXPECT_LT(t.size(), 300u);
  for (const TraceEvent& e : t.events()) {
    EXPECT_EQ(e.cls, QueryClass::kJoin);
    EXPECT_LT(e.arrival_ms, 100000.0);
  }
}

TEST(TraceSynthesisTest, SortedByArrival) {
  Trace t = SynthesizeTrace(5, 20000.0,
                            {{QueryClass::kJoin, 1.0},
                             {QueryClass::kScan, 1.0},
                             {QueryClass::kUpdate, 1.0},
                             {QueryClass::kMultiwayJoin, 0.5},
                             {QueryClass::kOltp, 5.0}},
                            {0, 1, 2});
  const auto& ev = t.events();
  for (size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].arrival_ms, ev[i].arrival_ms);
  }
}

TEST(TraceSynthesisTest, ArrivesWhenAPoissonSourceWould) {
  // A class of a synthesized trace arrives at exactly the instants at which
  // a cluster's Poisson source with the same root seed and rate fires.
  constexpr SimTime kHorizonMs = 20000.0;
  const std::vector<ClassRate> rates = {{QueryClass::kJoin, 1.0},
                                        {QueryClass::kScan, 0.5},
                                        {QueryClass::kOltp, 10.0}};
  const std::vector<PeId> oltp_nodes = {0, 3};
  size_t compared = 0;
  for (uint64_t seed : {1ULL, 42ULL, 99ULL, 12345ULL}) {
    const Trace trace = SynthesizeTrace(seed, kHorizonMs, rates, oltp_nodes);
    for (const ClassRate& r : rates) {
      const bool oltp = r.cls == QueryClass::kOltp;
      for (PeId home : oltp ? oltp_nodes : std::vector<PeId>{0}) {
        std::vector<SimTime> synthesized;
        for (const TraceEvent& e : trace.events()) {
          if (e.cls == r.cls && (!oltp || e.oltp_node == home)) {
            synthesized.push_back(e.arrival_ms);
          }
        }
        sim::Scheduler sched;
        std::vector<SimTime> fired;
        sched.Spawn(PoissonArrivals(sched, ArrivalRng(seed, r.cls, home),
                                    r.per_second, [&](int64_t) {
                                      fired.push_back(sched.Now());
                                    }));
        sched.RunUntil(kHorizonMs);
        sched.CancelAll();
        EXPECT_EQ(fired, synthesized)
            << "seed " << seed << " class "
            << kQueryClasses[static_cast<size_t>(r.cls)].token << " home "
            << home;
        compared += synthesized.size();
      }
    }
  }
  EXPECT_GT(compared, 1500u);
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
  Trace trace = SynthesizeTrace(11, 8000.0,
                                {{QueryClass::kJoin, 1.0},
                                 {QueryClass::kScan, 0.5},
                                 {QueryClass::kOltp, 20.0}},
                                {0});
  SystemConfig cfg = ReplayConfig();
  // OLTP trace events need the per-node OLTP relations in the schema.
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kAllNodes;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.SetTrace(trace).ok());
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.joins_completed, 0);
  EXPECT_GT(r.scans_completed, 0);
  EXPECT_GT(r.oltp_completed, 0);
}

TEST(TraceReplayTest, IdenticalTraceIdenticalResults) {
  Trace trace = SynthesizeTrace(13, 8000.0, {{QueryClass::kJoin, 1.5}}, {});
  auto run = [&] {
    Cluster cluster(ReplayConfig());
    EXPECT_TRUE(cluster.SetTrace(trace).ok());
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
  Trace trace = SynthesizeTrace(17, 8000.0, {{QueryClass::kJoin, 2.5}}, {});
  auto run = [&](StrategyConfig strategy) {
    SystemConfig cfg = ReplayConfig();
    cfg.strategy = strategy;
    Cluster cluster(cfg);
    EXPECT_TRUE(cluster.SetTrace(trace).ok());
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

// Two events of every class, replayed fault-free and with a deadline past
// the horizon, under which every query runs supervised: each class
// completes every event it was given, through either path, and each OLTP
// transaction locks at the PE its event names.
TEST(TraceReplayTest, ReplaysEveryClassWithAndWithoutSupervision) {
  Trace trace;
  ASSERT_TRUE(Trace::FromText("1000 join\n1200 scan\n1400 update\n"
                              "1600 multiway\n1800 oltp:5\n"
                              "3000 join\n3200 scan\n3400 update\n"
                              "3600 multiway\n3800 oltp:9\n",
                              &trace)
                  .ok());
  for (bool supervised : {false, true}) {
    SystemConfig cfg = ReplayConfig();
    cfg.measurement_ms = 20000.0;
    cfg.oltp.enabled = true;
    // PEs 2..9; the updates lock only at the A nodes, PEs 0 and 1.
    cfg.oltp.placement = OltpPlacement::kBNodes;
    if (supervised) cfg.faults.query_timeout_ms = 1e9;
    Cluster cluster(cfg);
    ASSERT_TRUE(cluster.SetTrace(trace).ok());
    MetricsReport r = cluster.Run();
    SCOPED_TRACE(supervised ? "supervised" : "fault-free");
    EXPECT_EQ(r.joins_completed, 2);
    EXPECT_EQ(r.scans_completed, 2);
    EXPECT_EQ(r.updates_completed, 2);
    EXPECT_EQ(r.multiway_completed, 2);
    EXPECT_EQ(r.oltp_completed, 2);
    EXPECT_EQ(r.queries_timed_out, 0);
    for (PeId pe = 2; pe < cfg.num_pes; ++pe) {
      EXPECT_EQ(cluster.pe(pe).locks().locks_granted() > 0, pe == 5 || pe == 9)
          << "pe " << pe;
    }
  }
}

// An OLTP event runs at the PE it names, on that PE's OLTP relation: a
// trace naming a PE outside the cluster, or one without an OLTP relation,
// is rejected before it runs.
TEST(TraceReplayTest, RejectsOltpEventsItCannotRun) {
  SystemConfig cfg = ReplayConfig();
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kBNodes;  // PEs 2..9 of 10
  auto set = [&](const std::string& text) {
    Trace trace;
    EXPECT_TRUE(Trace::FromText(text, &trace).ok());
    Cluster cluster(cfg);
    return cluster.SetTrace(trace);
  };
  Status outside = set("100 join\n250.5 oltp:99\n");
  EXPECT_EQ(outside.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outside.message().find("250.500 ms: oltp:99"), std::string::npos)
      << outside;
  Status no_relation = set("100 oltp:2\n250.5 oltp:0\n");
  EXPECT_EQ(no_relation.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_relation.message().find("250.500 ms: oltp:0"),
            std::string::npos)
      << no_relation;
  EXPECT_TRUE(set("100 join\n250.5 oltp:9\n").ok());
}

}  // namespace
}  // namespace pdblb
