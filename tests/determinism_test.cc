// Copyright 2026 the pdblb authors. MIT license.
//
// Determinism: every experiment is exactly reproducible from its seed, for
// every workload class, architecture, CC scheme and join method — and
// different seeds genuinely change the outcome.  This is what makes the
// figure reproductions trustworthy.

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "expect_identical_reports.h"

namespace pdblb {
namespace {

MetricsReport RunOnce(const SystemConfig& cfg) {
  Cluster cluster(cfg);
  return cluster.Run();
}

SystemConfig SmallConfig() {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.warmup_ms = 500.0;
  cfg.measurement_ms = 4000.0;
  return cfg;
}

/// Adds 3-way joins to `cfg` and runs it twice.  They run through the
/// two-way join's executor, so they take every branch the configuration
/// selects there; the first run must complete one.
void ExpectReproducibleWithMultiwayJoins(SystemConfig cfg) {
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.05;
  MetricsReport first = RunOnce(cfg);
  EXPECT_GT(first.multiway_completed, 0);
  ExpectIdenticalReports(first, RunOnce(cfg));
}

TEST(DeterminismTest, BaseJoinWorkload) {
  SystemConfig cfg = SmallConfig();
  ExpectIdenticalReports(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  SystemConfig a = SmallConfig();
  SystemConfig b = SmallConfig();
  b.seed = 4711;
  MetricsReport ra = RunOnce(a);
  MetricsReport rb = RunOnce(b);
  EXPECT_NE(ra.join_rt_ms, rb.join_rt_ms);
}

TEST(DeterminismTest, AllClassesMixed) {
  SystemConfig cfg = SmallConfig();
  cfg.join_query.arrival_rate_per_pe_qps = 0.05;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.05;
  cfg.update_query.arrival_rate_per_pe_qps = 0.05;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.02;
  cfg.oltp.enabled = true;
  cfg.oltp.tps_per_node = 20.0;
  ExpectIdenticalReports(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, SharedDiskArchitecture) {
  SystemConfig cfg = SmallConfig();
  cfg.architecture = Architecture::kSharedDisk;
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kANodes;
  cfg.oltp.tps_per_node = 50.0;
  ExpectReproducibleWithMultiwayJoins(cfg);
}

TEST(DeterminismTest, TwoPhaseLockingScheme) {
  SystemConfig cfg = SmallConfig();
  cfg.cc_scheme = CcScheme::kTwoPhaseLocking;
  cfg.update_query.arrival_rate_per_pe_qps = 0.2;
  ExpectReproducibleWithMultiwayJoins(cfg);
}

TEST(DeterminismTest, SortMergeJoinMethod) {
  SystemConfig cfg = SmallConfig();
  cfg.local_join_method = LocalJoinMethod::kSortMerge;
  ExpectIdenticalReports(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, SkewedRedistribution) {
  SystemConfig cfg = SmallConfig();
  cfg.join_query.redistribution_skew = 1.0;
  cfg.strategy.skew_aware_assignment = true;
  ExpectReproducibleWithMultiwayJoins(cfg);
}

TEST(DeterminismTest, SingleUserMode) {
  SystemConfig cfg = SmallConfig();
  cfg.single_user_mode = true;
  cfg.single_user_queries = 10;
  ExpectIdenticalReports(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, RateMatchStrategy) {
  SystemConfig cfg = SmallConfig();
  cfg.strategy = strategies::RateMatchLUC();
  ExpectIdenticalReports(RunOnce(cfg), RunOnce(cfg));
}

// Tracing only observes: a traced run dispatches exactly the events of an
// untraced one.  OLTP, 3-way joins and a crash with timeouts put channel
// hand-offs and cancelled (tombstoned) calendar entries on the path, which
// the traced drain loop must skip exactly as the untraced one does.
TEST(DeterminismTest, TracingDoesNotChangeResults) {
  SystemConfig cfg = SmallConfig();
  cfg.oltp.enabled = true;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.05;
  ASSERT_TRUE(ParseFaultSpec("crash@1500:pe3;recover@3000:pe3;timeout=4000",
                             &cfg.faults)
                  .ok());
  MetricsReport untraced = RunOnce(cfg);
  cfg.trace.enabled = true;
  MetricsReport traced = RunOnce(cfg);
  EXPECT_TRUE(traced.trace_enabled);
  EXPECT_GT(traced.kernel_handoffs, 0u);
  traced.trace_enabled = false;
  traced.trace_subsystem_events = {};
  traced.trace_subsystem_time_ms = {};
  ExpectIdenticalReports(untraced, traced);
}

}  // namespace
}  // namespace pdblb
