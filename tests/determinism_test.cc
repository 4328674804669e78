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
  cfg.scan_query.enabled = true;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.05;
  cfg.update_query.enabled = true;
  cfg.update_query.arrival_rate_per_pe_qps = 0.05;
  cfg.multiway_join.enabled = true;
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
  ExpectIdenticalReports(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, TwoPhaseLockingScheme) {
  SystemConfig cfg = SmallConfig();
  cfg.cc_scheme = CcScheme::kTwoPhaseLocking;
  cfg.update_query.enabled = true;
  cfg.update_query.arrival_rate_per_pe_qps = 0.2;
  ExpectIdenticalReports(RunOnce(cfg), RunOnce(cfg));
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
  ExpectIdenticalReports(RunOnce(cfg), RunOnce(cfg));
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

}  // namespace
}  // namespace pdblb
