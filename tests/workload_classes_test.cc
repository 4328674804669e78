// Copyright 2026 the pdblb authors. MIT license.
//
// Tests for the additional workload classes of the paper's Section 4 model:
// standalone scan queries (relation scan, clustered index scan,
// non-clustered index scan), update statements (with and without index
// support, strict 2PL + full 2PC), and multi-way join queries.

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "engine/cluster.h"

namespace pdblb {
namespace {

SystemConfig Base(int num_pes = 10) {
  SystemConfig cfg;
  cfg.num_pes = num_pes;
  // Quiet the two-way join class by default; each test enables one class.
  cfg.join_query.arrival_rate_per_pe_qps = 0.0;
  cfg.warmup_ms = 500.0;
  cfg.measurement_ms = 6000.0;
  return cfg;
}

// ------------------------------------------------------------ scan queries

TEST(ScanQueryTest, ClusteredIndexScanCompletes) {
  SystemConfig cfg = Base();
  cfg.scan_query.enabled = true;
  cfg.scan_query.access = ScanAccess::kClusteredIndex;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.2;
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.scans_completed, 0);
  EXPECT_GT(r.scan_rt_ms, 0.0);
  EXPECT_EQ(r.joins_completed, 0);
}

TEST(ScanQueryTest, RelationScanSlowerThanIndexScan) {
  auto run = [](ScanAccess access) {
    SystemConfig cfg = Base();
    // Scaled-down relations: a full scan of the paper-sized B (50k pages)
    // takes several simulated seconds per query.
    cfg.relation_b.num_tuples = 100000;
    cfg.scan_query.enabled = true;
    cfg.scan_query.access = access;
    cfg.scan_query.selectivity = 0.01;
    cfg.scan_query.arrival_rate_per_pe_qps = 0.02;
    cfg.measurement_ms = 20000.0;
    Cluster cluster(cfg);
    return cluster.Run();
  };
  MetricsReport full = run(ScanAccess::kRelationScan);
  MetricsReport indexed = run(ScanAccess::kClusteredIndex);
  ASSERT_GT(full.scans_completed, 0);
  ASSERT_GT(indexed.scans_completed, 0);
  // A relation scan reads the whole fragment; the clustered index scan only
  // the selected 1%.
  EXPECT_GT(full.scan_rt_ms, 2.0 * indexed.scan_rt_ms);
}

TEST(ScanQueryTest, UnclusteredIndexPaysPerTupleIo) {
  auto run = [](ScanAccess access, double sel) {
    SystemConfig cfg = Base();
    cfg.relation_b.num_tuples = 100000;
    cfg.scan_query.enabled = true;
    cfg.scan_query.access = access;
    cfg.scan_query.selectivity = sel;
    cfg.scan_query.arrival_rate_per_pe_qps = 0.02;
    cfg.measurement_ms = 20000.0;
    Cluster cluster(cfg);
    return cluster.Run();
  };
  // The unclustered path does one random leaf + data I/O per tuple and must
  // lose against the clustered range read at this selectivity.
  MetricsReport unclustered = run(ScanAccess::kUnclusteredIndex, 0.005);
  MetricsReport clustered = run(ScanAccess::kClusteredIndex, 0.005);
  ASSERT_GT(unclustered.scans_completed, 0);
  EXPECT_GT(unclustered.scan_rt_ms, clustered.scan_rt_ms);
}

TEST(ScanQueryTest, ScanOnRelationATouchesOnlyANodes) {
  SystemConfig cfg = Base();
  cfg.scan_query.enabled = true;
  cfg.scan_query.relation = TargetRelation::kA;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.2;
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.scans_completed, 0);
}

TEST(ScanQueryTest, HigherSelectivityLongerScans) {
  auto run = [](double sel) {
    SystemConfig cfg = Base();
    cfg.scan_query.enabled = true;
    cfg.scan_query.selectivity = sel;
    cfg.scan_query.arrival_rate_per_pe_qps = 0.05;
    Cluster cluster(cfg);
    return cluster.Run();
  };
  MetricsReport small = run(0.005);
  MetricsReport large = run(0.05);
  ASSERT_GT(small.scans_completed, 0);
  ASSERT_GT(large.scans_completed, 0);
  EXPECT_GT(large.scan_rt_ms, small.scan_rt_ms);
}

// --------------------------------------------------------- update queries

TEST(UpdateQueryTest, IndexedUpdateCompletes) {
  SystemConfig cfg = Base();
  cfg.update_query.enabled = true;
  cfg.update_query.arrival_rate_per_pe_qps = 0.1;
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.updates_completed, 0);
  EXPECT_GT(r.update_rt_ms, 0.0);
  EXPECT_GE(r.update_aborts, 0);
}

TEST(UpdateQueryTest, NoIndexSupportRequiresFullScan) {
  auto run = [](bool indexed) {
    SystemConfig cfg = Base();
    cfg.relation_a.num_tuples = 50000;
    cfg.update_query.enabled = true;
    cfg.update_query.index_supported = indexed;
    cfg.update_query.arrival_rate_per_pe_qps = 0.02;
    cfg.measurement_ms = 20000.0;
    Cluster cluster(cfg);
    return cluster.Run();
  };
  MetricsReport with_index = run(true);
  MetricsReport without = run(false);
  ASSERT_GT(with_index.updates_completed, 0);
  ASSERT_GT(without.updates_completed, 0);
  EXPECT_GT(without.update_rt_ms, 2.0 * with_index.update_rt_ms);
}

TEST(UpdateQueryTest, ConcurrentUpdatesSerializeOnLocks) {
  // Raise the update rate so statements overlap; strict 2PL serializes the
  // conflicting tuple ranges and every statement still completes.
  SystemConfig cfg = Base(4);
  cfg.update_query.enabled = true;
  cfg.update_query.selectivity = 0.02;
  cfg.update_query.arrival_rate_per_pe_qps = 0.5;
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.updates_completed, 0);
}

// --------------------------------------------------------- multi-way joins

TEST(MultiwayJoinTest, ThreeWayJoinCompletes) {
  SystemConfig cfg = Base();
  cfg.multiway_join.enabled = true;
  cfg.multiway_join.ways = 3;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.05;
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.multiway_completed, 0);
  EXPECT_GT(r.multiway_rt_ms, 0.0);
}

TEST(MultiwayJoinTest, MoreWaysTakeLonger) {
  auto run = [](int ways) {
    SystemConfig cfg = Base();
    cfg.multiway_join.enabled = true;
    cfg.multiway_join.ways = ways;
    cfg.multiway_join.arrival_rate_per_pe_qps = 0.02;
    Cluster cluster(cfg);
    return cluster.Run();
  };
  MetricsReport three = run(3);
  MetricsReport four = run(4);
  ASSERT_GT(three.multiway_completed, 0);
  ASSERT_GT(four.multiway_completed, 0);
  EXPECT_GT(four.multiway_rt_ms, three.multiway_rt_ms);
}

TEST(MultiwayJoinTest, ThreeWaySlowerThanTwoWay) {
  SystemConfig two = Base();
  two.join_query.arrival_rate_per_pe_qps = 0.02;
  Cluster c2(two);
  MetricsReport r2 = c2.Run();

  SystemConfig three = Base();
  three.multiway_join.enabled = true;
  three.multiway_join.arrival_rate_per_pe_qps = 0.02;
  Cluster c3(three);
  MetricsReport r3 = c3.Run();

  ASSERT_GT(r2.joins_completed, 0);
  ASSERT_GT(r3.multiway_completed, 0);
  EXPECT_GT(r3.multiway_rt_ms, r2.join_rt_ms);
}

TEST(MultiwayJoinTest, TakesReadLocksUnderTwoPhaseLocking) {
  // A multi-way join runs the two-way join's stages, so under strict 2PL
  // its scans read-lock their pages like a two-way join's do.
  SystemConfig cfg = Base();
  cfg.cc_scheme = CcScheme::kTwoPhaseLocking;
  cfg.multiway_join.enabled = true;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.02;
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  ASSERT_GT(r.multiway_completed, 0);
  int64_t granted = 0;
  for (PeId pe = 0; pe < cfg.num_pes; ++pe) {
    granted += cluster.pe(pe).locks().locks_granted();
  }
  EXPECT_GT(granted, 0);
}

TEST(MultiwayJoinTest, RedistributionSkewReachesEveryStage) {
  auto run = [](double theta) {
    SystemConfig cfg = Base();
    cfg.join_query.redistribution_skew = theta;
    cfg.multiway_join.enabled = true;
    cfg.multiway_join.arrival_rate_per_pe_qps = 0.02;
    Cluster cluster(cfg);
    return cluster.Run();
  };
  MetricsReport uniform = run(0.0);
  MetricsReport skewed = run(1.0);
  ASSERT_GT(uniform.multiway_completed, 0);
  ASSERT_GT(skewed.multiway_completed, 0);
  // Skewed partitioning leaves one dominant subjoin per stage, which the
  // stage has to wait for.
  EXPECT_GT(skewed.multiway_rt_ms, uniform.multiway_rt_ms);
}

TEST(MultiwayJoinTest, ValidateRejectsTwoWays) {
  SystemConfig cfg;
  cfg.multiway_join.enabled = true;
  cfg.multiway_join.ways = 2;
  EXPECT_FALSE(cfg.Validate().ok());
}

// ------------------------------------------------------------ mixed classes

TEST(MixedClassesTest, AllClassesRunTogether) {
  SystemConfig cfg = Base(10);
  cfg.join_query.arrival_rate_per_pe_qps = 0.05;
  cfg.scan_query.enabled = true;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.05;
  cfg.update_query.enabled = true;
  cfg.update_query.arrival_rate_per_pe_qps = 0.05;
  cfg.multiway_join.enabled = true;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.02;
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kANodes;
  cfg.oltp.tps_per_node = 20.0;
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.joins_completed, 0);
  EXPECT_GT(r.scans_completed, 0);
  EXPECT_GT(r.updates_completed, 0);
  EXPECT_GT(r.multiway_completed, 0);
  EXPECT_GT(r.oltp_completed, 0);
}

// -------------------------------------------------------------- catalog C

TEST(RelationCTest, DeclusteredOverAllPes) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  Database db(cfg);
  EXPECT_EQ(db.c().home_pes().size(), 10u);
  EXPECT_EQ(db.target(TargetRelation::kC).id(), kRelationC);
  EXPECT_EQ(db.target_nodes(TargetRelation::kA).size(),
            static_cast<size_t>(cfg.NumANodes()));
  EXPECT_EQ(db.target(TargetRelation::kB).id(), kRelationB);
}

}  // namespace
}  // namespace pdblb
