// Copyright 2026 the pdblb authors. MIT license.
//
// Tests for the RateMatch baseline (Mehta & DeWitt [20], paper Section 6):
// the degree formula, its load-dependence (the behaviour the paper
// criticizes), the policy wiring, and small integration runs showing that
// RateMatch drives utilization up under load where OPT-IO-CPU backs off.

#include <gtest/gtest.h>

#include <set>

#include "core/control_node.h"
#include "core/cost_model.h"
#include "core/strategies.h"
#include "engine/cluster.h"
#include "simkern/rng.h"

namespace pdblb {
namespace {

JoinPlanRequest RateRequest(double scan_tps, double join_tps, int n) {
  JoinPlanRequest req;
  req.scan_rate_tps = scan_tps;
  req.join_rate_tps = join_tps;
  req.num_pes = n;
  req.psu_opt = n / 2;
  req.psu_noio = 2;
  req.hash_table_pages = 100;
  return req;
}

// ------------------------------------------------------------ degree math

TEST(RateMatchDegreeTest, UnloadedSystemMatchesRateRatio) {
  // 10k tuples/s arriving, 2.5k consumed per processor: 4 processors.
  auto req = RateRequest(10000.0, 2500.0, 80);
  EXPECT_EQ(internal::RateMatchDegree(req, 0.0, 0.0, 80), 4);
}

TEST(RateMatchDegreeTest, RoundsUpPartialProcessors) {
  auto req = RateRequest(10000.0, 3000.0, 80);
  EXPECT_EQ(internal::RateMatchDegree(req, 0.0, 0.0, 80), 4);  // ceil(3.33)
}

TEST(RateMatchDegreeTest, DegreeGrowsWithCpuUtilization) {
  auto req = RateRequest(10000.0, 2500.0, 80);
  int last = 0;
  for (double u = 0.0; u <= 0.95; u += 0.05) {
    int p = internal::RateMatchDegree(req, u, 0.0, 80);
    EXPECT_GE(p, last) << "not monotone at u=" << u;
    last = p;
  }
  // At 50% utilization the degree has doubled relative to the unloaded case.
  EXPECT_EQ(internal::RateMatchDegree(req, 0.5, 0.0, 80), 8);
}

TEST(RateMatchDegreeTest, DegreeGrowsWithDiskUtilization) {
  auto req = RateRequest(10000.0, 2500.0, 80);
  EXPECT_GT(internal::RateMatchDegree(req, 0.0, 0.6, 80),
            internal::RateMatchDegree(req, 0.0, 0.0, 80));
}

TEST(RateMatchDegreeTest, ClampsToSystemSize) {
  auto req = RateRequest(10000.0, 2500.0, 6);
  EXPECT_EQ(internal::RateMatchDegree(req, 0.9, 0.9, 6), 6);
}

TEST(RateMatchDegreeTest, SaturatedSystemDoesNotDivideByZero) {
  auto req = RateRequest(10000.0, 2500.0, 80);
  int p = internal::RateMatchDegree(req, 1.0, 1.0, 80);
  EXPECT_GE(p, 1);
  EXPECT_LE(p, 80);
}

TEST(RateMatchDegreeTest, MissingRatesFallBackToOne) {
  auto req = RateRequest(0.0, 0.0, 80);
  EXPECT_EQ(internal::RateMatchDegree(req, 0.3, 0.0, 80), 1);
}

TEST(RateMatchDegreeTest, AtLeastOneProcessor) {
  // Scans slower than one join processor: still one processor.
  auto req = RateRequest(100.0, 2500.0, 80);
  EXPECT_EQ(internal::RateMatchDegree(req, 0.0, 0.0, 80), 1);
}

// ---------------------------------------------------------- cost model rates

TEST(RateMatchRatesTest, CostModelRatesArePositive) {
  SystemConfig cfg;
  cfg.num_pes = 40;
  CostModel model(cfg);
  EXPECT_GT(model.ScanProductionRateTps(), 0.0);
  EXPECT_GT(model.JoinConsumptionRateTps(), 0.0);
}

TEST(RateMatchRatesTest, ScanRateScalesWithSystemSize) {
  // More data processors produce the join input faster (per-node share
  // shrinks), so the aggregate production rate rises with n.
  SystemConfig small;
  small.num_pes = 20;
  SystemConfig large;
  large.num_pes = 80;
  EXPECT_GT(CostModel(large).ScanProductionRateTps(),
            CostModel(small).ScanProductionRateTps());
}

TEST(RateMatchRatesTest, JoinRateIndependentOfSystemSize) {
  // One join processor's consumption rate is a property of the query class,
  // not of the cluster size.
  SystemConfig small;
  small.num_pes = 20;
  SystemConfig large;
  large.num_pes = 80;
  EXPECT_DOUBLE_EQ(CostModel(large).JoinConsumptionRateTps(),
                   CostModel(small).JoinConsumptionRateTps());
}

// -------------------------------------------------------------- policy wiring

TEST(RateMatchPolicyTest, NameAndFactory) {
  EXPECT_EQ(strategies::RateMatchLUC().Name(), "RateMatch + LUC");
  EXPECT_EQ(strategies::RateMatchRandom().Name(), "RateMatch + RANDOM");
  EXPECT_EQ(strategies::RateMatchLUM().Name(), "RateMatch + LUM");
  EXPECT_NE(LoadBalancingPolicy::Create(strategies::RateMatchLUC()), nullptr);
}

TEST(RateMatchPolicyTest, PlanUsesControlNodeAverages) {
  ControlNode cn(8, /*adaptive_feedback=*/false);
  for (PeId pe = 0; pe < 8; ++pe) cn.Report(pe, 0.0, 50, 0.0);
  auto req = RateRequest(10000.0, 2500.0, 8);
  sim::Rng rng(7);

  auto policy = LoadBalancingPolicy::Create(strategies::RateMatchLUC());
  JoinPlan idle = policy->Plan(req, cn, rng);
  EXPECT_EQ(idle.degree, 4);

  for (PeId pe = 0; pe < 8; ++pe) cn.Report(pe, 0.5, 50, 0.0);
  JoinPlan busy = policy->Plan(req, cn, rng);
  EXPECT_GT(busy.degree, idle.degree);
}

TEST(RateMatchPolicyTest, SelectsLeastUtilizedCpusWithLuc) {
  ControlNode cn(6, false);
  cn.Report(0, 0.9, 10, 0.0);
  cn.Report(1, 0.1, 10, 0.0);
  cn.Report(2, 0.8, 10, 0.0);
  cn.Report(3, 0.2, 10, 0.0);
  cn.Report(4, 0.7, 10, 0.0);
  cn.Report(5, 0.3, 10, 0.0);
  // Average utilization 0.5 → degree doubles from 2 to 4.
  auto req = RateRequest(1000.0, 500.0, 6);
  sim::Rng rng(7);
  auto policy = LoadBalancingPolicy::Create(strategies::RateMatchLUC());
  JoinPlan plan = policy->Plan(req, cn, rng);
  ASSERT_EQ(plan.degree, 4);
  std::set<PeId> chosen(plan.pes.begin(), plan.pes.end());
  EXPECT_EQ(chosen, (std::set<PeId>{1, 3, 5, 4}));
}

TEST(RateMatchPolicyTest, DistinctPesAlways) {
  ControlNode cn(12, false);
  for (PeId pe = 0; pe < 12; ++pe) cn.Report(pe, 0.4, 20, 0.1);
  auto req = RateRequest(9000.0, 1000.0, 12);
  sim::Rng rng(3);
  for (auto sel : {strategies::RateMatchRandom(), strategies::RateMatchLUC(),
                   strategies::RateMatchLUM()}) {
    auto policy = LoadBalancingPolicy::Create(sel);
    JoinPlan plan = policy->Plan(req, cn, rng);
    std::set<PeId> distinct(plan.pes.begin(), plan.pes.end());
    EXPECT_EQ(static_cast<int>(distinct.size()), plan.degree) << sel.Name();
  }
}

// ------------------------------------------------------------- integration

TEST(RateMatchIntegrationTest, RunsEndToEnd) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.strategy = strategies::RateMatchLUC();
  cfg.warmup_ms = 500.0;
  cfg.measurement_ms = 4000.0;
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  EXPECT_GT(r.joins_completed, 0);
  EXPECT_GT(r.avg_degree, 0.0);
}

TEST(RateMatchIntegrationTest, DegreeRisesWithLoadUnlikePmuCpu) {
  // The core of the paper's critique: under load RateMatch *raises* the
  // degree of parallelism while p_mu-cpu lowers it.
  auto run = [](StrategyConfig strategy, double qps) {
    SystemConfig cfg;
    cfg.num_pes = 40;
    cfg.strategy = strategy;
    cfg.join_query.arrival_rate_per_pe_qps = qps;
    cfg.warmup_ms = 1000.0;
    cfg.measurement_ms = 8000.0;
    Cluster cluster(cfg);
    return cluster.Run();
  };
  MetricsReport rm_light = run(strategies::RateMatchLUC(), 0.05);
  MetricsReport rm_heavy = run(strategies::RateMatchLUC(), 0.30);
  MetricsReport mu_light = run(strategies::PmuCpuLUM(), 0.05);
  MetricsReport mu_heavy = run(strategies::PmuCpuLUM(), 0.30);
  EXPECT_GT(rm_heavy.avg_degree, rm_light.avg_degree);
  EXPECT_LT(mu_heavy.avg_degree, mu_light.avg_degree + 0.5);
}

}  // namespace
}  // namespace pdblb
