// Copyright 2026 the pdblb authors. MIT license.
//
// Unit and property tests for the paper's contribution: the control node,
// the analytic cost model (formulas 3.1/3.2 and the p_su-opt anchors) and
// all nine load-balancing strategies, including the MIN-IO footnote-5
// scenario from the paper.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>

#include "core/control_node.h"
#include "core/cost_model.h"
#include "core/strategies.h"
#include "simkern/rng.h"

namespace pdblb {
namespace {

// ---------------------------------------------------------------- control

TEST(ControlNodeTest, ReportsAndAverage) {
  ControlNode cn(4, /*adaptive_feedback=*/false);
  cn.Report(0, 0.2, 40, 0.1);
  cn.Report(1, 0.4, 30, 0.1);
  cn.Report(2, 0.6, 20, 0.1);
  cn.Report(3, 0.8, 10, 0.1);
  EXPECT_DOUBLE_EQ(cn.AvgCpuUtilization(), 0.5);
  EXPECT_EQ(cn.info(2).free_memory_pages, 20);
}

TEST(ControlNodeTest, AvailMemorySortedDescending) {
  ControlNode cn(3, false);
  cn.Report(0, 0.0, 10, 0.0);
  cn.Report(1, 0.0, 30, 0.0);
  cn.Report(2, 0.0, 20, 0.0);
  auto sorted = cn.AvailMemorySorted();
  EXPECT_EQ(sorted[0].pe, 1);
  EXPECT_EQ(sorted[1].pe, 2);
  EXPECT_EQ(sorted[2].pe, 0);
}

TEST(ControlNodeTest, CpuSortedAscending) {
  ControlNode cn(3, false);
  cn.Report(0, 0.9, 0, 0.0);
  cn.Report(1, 0.1, 0, 0.0);
  cn.Report(2, 0.5, 0, 0.0);
  auto sorted = cn.CpuSorted();
  EXPECT_EQ(sorted[0].pe, 1);
  EXPECT_EQ(sorted[1].pe, 2);
  EXPECT_EQ(sorted[2].pe, 0);
}

TEST(ControlNodeTest, AdaptiveFeedbackBumpsSelectedPes) {
  ControlNode cn(2, /*adaptive_feedback=*/true);
  cn.Report(0, 0.4, 40, 0.0);
  cn.Report(1, 0.4, 40, 0.0);
  cn.NoteJoinScheduled({0}, 10);
  EXPECT_DOUBLE_EQ(cn.info(0).cpu_util, 0.55);  // 0.4 + 0.6*0.25
  EXPECT_EQ(cn.info(0).free_memory_pages, 30);
  EXPECT_DOUBLE_EQ(cn.info(1).cpu_util, 0.4);  // untouched
  // A fresh report overwrites the bump.
  cn.Report(0, 0.4, 40, 0.0);
  EXPECT_DOUBLE_EQ(cn.info(0).cpu_util, 0.4);
}

TEST(ControlNodeTest, FeedbackDisabled) {
  ControlNode cn(2, /*adaptive_feedback=*/false);
  cn.Report(0, 0.4, 40, 0.0);
  cn.NoteJoinScheduled({0}, 10);
  EXPECT_DOUBLE_EQ(cn.info(0).cpu_util, 0.4);
  EXPECT_EQ(cn.info(0).free_memory_pages, 40);
}

TEST(ControlNodeTest, FreeMemoryNeverNegative) {
  ControlNode cn(1, true);
  cn.Report(0, 0.0, 5, 0.0);
  cn.NoteJoinScheduled({0}, 100);
  EXPECT_EQ(cn.info(0).free_memory_pages, 0);
}

// -------------------------------------------------------------- cost model

SystemConfig PaperConfig(int n = 80, double selectivity = 0.01) {
  SystemConfig cfg;
  cfg.num_pes = n;
  cfg.join_query.scan_selectivity = selectivity;
  return cfg;
}

TEST(CostModelTest, Formula31PaperAnchors) {
  // p_su-noIO = 1 / 3 / 14 at selectivities 0.1% / 1% / 5% (paper text).
  EXPECT_EQ(CostModel(PaperConfig(80, 0.001)).PsuNoIO(), 1);
  EXPECT_EQ(CostModel(PaperConfig(80, 0.01)).PsuNoIO(), 3);
  EXPECT_EQ(CostModel(PaperConfig(80, 0.05)).PsuNoIO(), 14);
}

TEST(CostModelTest, PsuOptPaperAnchors) {
  // p_su-opt = 10 / 30 / ~70 at selectivities 0.1% / 1% / 5%.
  EXPECT_EQ(CostModel(PaperConfig(80, 0.001)).PsuOpt(), 10);
  EXPECT_EQ(CostModel(PaperConfig(80, 0.01)).PsuOpt(), 30);
  int p5 = CostModel(PaperConfig(80, 0.05)).PsuOpt();
  EXPECT_GE(p5, 60);
  EXPECT_LE(p5, 75);
}

TEST(CostModelTest, PsuOptCappedBySystemSize) {
  EXPECT_LE(CostModel(PaperConfig(10, 0.05)).PsuOpt(), 10);
}

TEST(CostModelTest, Formula32Reduction) {
  const int psu_opt = CostModel(PaperConfig(80, 0.01)).PsuOpt();
  ASSERT_EQ(psu_opt, 30);
  EXPECT_EQ(PmuCpu(psu_opt, 0.0, 80), 30);
  // Reduction is mild below 50% utilization...
  EXPECT_GE(PmuCpu(psu_opt, 0.5, 80), 26);
  // ...and strong at high utilization: 30 * (1 - 0.9^3) = 8.1.
  EXPECT_EQ(PmuCpu(psu_opt, 0.9, 80), 8);
  EXPECT_EQ(PmuCpu(psu_opt, 1.0, 80), 1);
}

TEST(CostModelTest, PmuCpuMonotoneInUtilization) {
  const int psu_opt = CostModel(PaperConfig(80, 0.01)).PsuOpt();
  int prev = PmuCpu(psu_opt, 0.0, 80);
  for (double u = 0.05; u <= 1.0; u += 0.05) {
    int p = PmuCpu(psu_opt, u, 80);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(CostModelTest, ResponseTimeIsUShaped) {
  CostModel cm(PaperConfig(80, 0.01));
  int opt = cm.PsuOpt();
  // Strictly worse both far below and far above the optimum.
  EXPECT_GT(cm.ResponseTimeMs(1), cm.ResponseTimeMs(opt));
  EXPECT_GT(cm.ResponseTimeMs(80), cm.ResponseTimeMs(opt));
}

TEST(CostModelTest, TempIoPenalizesSmallDegrees) {
  // Below p_su-noIO the model must charge temp-file I/O.
  CostModel cm(PaperConfig(80, 0.05));  // psu_noIO = 14
  double with_io = cm.ResponseTimeMs(5);
  double without_io = cm.ResponseTimeMs(20);
  EXPECT_GT(with_io, without_io);
}

TEST(CostModelTest, HashTablePages) {
  CostModel cm(PaperConfig(80, 0.01));
  // ceil(1.05 * 125) = 132.
  EXPECT_EQ(cm.HashTablePages(), 132);
}

// Property sweep: formula 3.1 exactly equals MIN(n, ceil(b_i*F/m)).
struct NoIoParam {
  double selectivity;
  int buffer_pages;
  int num_pes;
};
class PsuNoIoLawTest : public ::testing::TestWithParam<NoIoParam> {};

TEST_P(PsuNoIoLawTest, MatchesClosedForm) {
  auto p = GetParam();
  SystemConfig cfg = PaperConfig(p.num_pes, p.selectivity);
  cfg.buffer.buffer_pages = p.buffer_pages;
  CostModel cm(cfg);
  int64_t bi_f = cm.HashTablePages();
  int expected = static_cast<int>(
      std::min<int64_t>(p.num_pes, (bi_f + p.buffer_pages - 1) /
                                       p.buffer_pages));
  expected = std::max(expected, 1);
  EXPECT_EQ(cm.PsuNoIO(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PsuNoIoLawTest,
    ::testing::Values(NoIoParam{0.001, 50, 80}, NoIoParam{0.01, 50, 80},
                      NoIoParam{0.02, 50, 80}, NoIoParam{0.05, 50, 80},
                      NoIoParam{0.01, 5, 80}, NoIoParam{0.01, 5, 20},
                      NoIoParam{0.05, 5, 80}, NoIoParam{0.2, 50, 40}));

// -------------------------------------------------------------- strategies

ControlNode UniformControl(int n, double cpu, int free) {
  ControlNode cn(n, /*adaptive_feedback=*/false);
  for (int i = 0; i < n; ++i) cn.Report(i, cpu, free, 0.0);
  return cn;
}

JoinPlanRequest PaperRequest(int n = 80) {
  JoinPlanRequest req;
  req.hash_table_pages = 132;
  req.psu_opt = 30;
  req.psu_noio = 3;
  req.num_pes = n;
  return req;
}

TEST(StrategyTest, StaticSuOptUsesPsuOpt) {
  auto policy = LoadBalancingPolicy::Create(strategies::PsuOptRandom());
  auto cn = UniformControl(80, 0.0, 50);
  sim::Rng rng(1);
  JoinPlan plan = policy->Plan(PaperRequest(), cn, rng);
  EXPECT_EQ(plan.degree, 30);
  EXPECT_EQ(plan.pes.size(), 30u);
  std::set<PeId> unique(plan.pes.begin(), plan.pes.end());
  EXPECT_EQ(unique.size(), 30u);  // distinct PEs
}

TEST(StrategyTest, StaticSuNoIoUsesPsuNoIo) {
  auto policy = LoadBalancingPolicy::Create(strategies::PsuNoIOLUM());
  auto cn = UniformControl(80, 0.0, 50);
  sim::Rng rng(1);
  EXPECT_EQ(policy->Plan(PaperRequest(), cn, rng).degree, 3);
}

TEST(StrategyTest, DegreeCappedBySystemSize) {
  auto policy = LoadBalancingPolicy::Create(strategies::PsuOptRandom());
  auto cn = UniformControl(10, 0.0, 50);
  sim::Rng rng(1);
  EXPECT_EQ(policy->Plan(PaperRequest(10), cn, rng).degree, 10);
}

TEST(StrategyTest, DynamicCpuReducesDegreeUnderLoad) {
  auto policy = LoadBalancingPolicy::Create(strategies::PmuCpuLUM());
  sim::Rng rng(1);
  auto idle = UniformControl(80, 0.05, 50);
  auto busy = UniformControl(80, 0.9, 50);
  int p_idle = policy->Plan(PaperRequest(), idle, rng).degree;
  int p_busy = policy->Plan(PaperRequest(), busy, rng).degree;
  EXPECT_EQ(p_idle, 30);
  EXPECT_EQ(p_busy, 8);  // 30 * (1 - 0.9^3) = 8.1
}

TEST(StrategyTest, LucPicksLeastUtilizedCpus) {
  StrategyConfig cfg = strategies::PsuNoIOLUC();
  auto policy = LoadBalancingPolicy::Create(cfg);
  ControlNode cn(5, false);
  cn.Report(0, 0.9, 50, 0);
  cn.Report(1, 0.1, 50, 0);
  cn.Report(2, 0.5, 50, 0);
  cn.Report(3, 0.2, 50, 0);
  cn.Report(4, 0.8, 50, 0);
  sim::Rng rng(1);
  JoinPlan plan = policy->Plan(PaperRequest(5), cn, rng);
  ASSERT_EQ(plan.degree, 3);
  std::set<PeId> chosen(plan.pes.begin(), plan.pes.end());
  EXPECT_TRUE(chosen.count(1));
  EXPECT_TRUE(chosen.count(3));
  EXPECT_TRUE(chosen.count(2));
}

TEST(StrategyTest, LumPicksMostFreeMemory) {
  auto policy = LoadBalancingPolicy::Create(strategies::PsuNoIOLUM());
  ControlNode cn(5, false);
  cn.Report(0, 0, 5, 0);
  cn.Report(1, 0, 45, 0);
  cn.Report(2, 0, 25, 0);
  cn.Report(3, 0, 40, 0);
  cn.Report(4, 0, 10, 0);
  sim::Rng rng(1);
  JoinPlan plan = policy->Plan(PaperRequest(5), cn, rng);
  ASSERT_EQ(plan.degree, 3);
  EXPECT_EQ(plan.pes[0], 1);
  EXPECT_EQ(plan.pes[1], 3);
  EXPECT_EQ(plan.pes[2], 2);
}

TEST(StrategyTest, MinIoFindsMinimalNoIoDegree) {
  auto policy = LoadBalancingPolicy::Create(strategies::MinIO());
  auto cn = UniformControl(80, 0.0, 50);  // 50 free everywhere
  sim::Rng rng(1);
  // need 132 pages -> k = 3 (50*3 = 150 >= 132).
  EXPECT_EQ(policy->Plan(PaperRequest(), cn, rng).degree, 3);
}

TEST(StrategyTest, MinIoPaperFootnote5Scenario) {
  // Paper footnote 5: storage requirement 10 MB, n = 4, availability
  // 8/1/0/0 MB: MIN-IO selects pmu = 1 (the 8 MB node), because overflow is
  // 2 MB there vs. at least 8 with any other choice.
  auto policy = LoadBalancingPolicy::Create(strategies::MinIO());
  ControlNode cn(4, false);
  cn.Report(0, 0, 8, 0);
  cn.Report(1, 0, 1, 0);
  cn.Report(2, 0, 0, 0);
  cn.Report(3, 0, 0, 0);
  JoinPlanRequest req;
  req.hash_table_pages = 10;
  req.psu_opt = 4;
  req.psu_noio = 2;
  req.num_pes = 4;
  sim::Rng rng(1);
  JoinPlan plan = policy->Plan(req, cn, rng);
  EXPECT_EQ(plan.degree, 1);
  ASSERT_EQ(plan.pes.size(), 1u);
  EXPECT_EQ(plan.pes[0], 0);
}

TEST(StrategyTest, MinIoSuOptPrefersDegreeNearPsuOpt) {
  auto policy = LoadBalancingPolicy::Create(strategies::MinIOSuOpt());
  auto cn = UniformControl(80, 0.0, 50);
  sim::Rng rng(1);
  // Any k >= 3 avoids I/O; the choice closest to psu_opt = 30 is 30.
  EXPECT_EQ(policy->Plan(PaperRequest(), cn, rng).degree, 30);
}

TEST(StrategyTest, MinIoSuOptBreaksDistanceTiesTowardTheLargerDegree) {
  // 100 pages fit on the top 1 (100 free) or the top 3 (3 * 34 >= 100) but
  // not the top 2 (2 * 40 < 100): p_su-opt = 2 is one away from both.
  auto policy = LoadBalancingPolicy::Create(strategies::MinIOSuOpt());
  ControlNode cn(3, false);
  cn.Report(0, 0, 100, 0);
  cn.Report(1, 0, 40, 0);
  cn.Report(2, 0, 34, 0);
  JoinPlanRequest req;
  req.hash_table_pages = 100;
  req.psu_opt = 2;
  req.num_pes = 3;
  sim::Rng rng(1);
  EXPECT_EQ(policy->Plan(req, cn, rng).degree, 3);
}

TEST(StrategyTest, MinIoSuOptFallsBackToLargerDegrees) {
  auto policy = LoadBalancingPolicy::Create(strategies::MinIOSuOpt());
  auto cn = UniformControl(80, 0.0, 1);  // 1 free page everywhere: no no-IO
  sim::Rng rng(1);
  JoinPlan plan = policy->Plan(PaperRequest(), cn, rng);
  EXPECT_EQ(plan.degree, 80);  // overflow minimized at the largest k
}

TEST(StrategyTest, OptIoCpuCapsDegreeByCpu) {
  auto policy = LoadBalancingPolicy::Create(strategies::OptIOCpu());
  sim::Rng rng(1);
  auto busy = UniformControl(80, 0.9, 50);
  JoinPlan plan = policy->Plan(PaperRequest(), busy, rng);
  EXPECT_EQ(plan.degree, 8);  // pmu-cpu cap at u=0.9: 30 * (1 - 0.9^3) = 8.1
}

TEST(StrategyTest, OptIoCpuPicksMaxNoIoDegreeUnderLightLoad) {
  auto policy = LoadBalancingPolicy::Create(strategies::OptIOCpu());
  sim::Rng rng(1);
  auto idle = UniformControl(80, 0.0, 50);
  // cap = 30; all k in [3,30] avoid I/O; the maximal one is chosen.
  EXPECT_EQ(policy->Plan(PaperRequest(), idle, rng).degree, 30);
}

TEST(StrategyTest, OptIoCpuAvoidsLowMemoryNodes) {
  // The paper's Fig. 9a story: OLTP nodes report little free memory, so
  // OPT-IO-CPU selects a smaller degree avoiding them.
  auto policy = LoadBalancingPolicy::Create(strategies::OptIOCpu());
  ControlNode cn(20, false);
  for (int i = 0; i < 4; ++i) cn.Report(i, 0.5, 4, 0.0);    // OLTP nodes
  for (int i = 4; i < 20; ++i) cn.Report(i, 0.1, 45, 0.0);  // B nodes
  JoinPlanRequest req = PaperRequest(20);
  sim::Rng rng(1);
  JoinPlan plan = policy->Plan(req, cn, rng);
  EXPECT_EQ(plan.degree, 16);  // exactly the 16 high-memory nodes
  for (PeId pe : plan.pes) EXPECT_GE(pe, 4);
}

TEST(StrategyTest, FactoryProducesAllNames) {
  const std::pair<StrategyConfig, const char*> named[] = {
      {strategies::PsuOptRandom(), "p_su-opt + RANDOM"},
      {strategies::PsuOptLUC(), "p_su-opt + LUC"},
      {strategies::PsuOptLUM(), "p_su-opt + LUM"},
      {strategies::PsuNoIORandom(), "p_su-noIO + RANDOM"},
      {strategies::PsuNoIOLUC(), "p_su-noIO + LUC"},
      {strategies::PsuNoIOLUM(), "p_su-noIO + LUM"},
      {strategies::PmuCpuRandom(), "p_mu-cpu + RANDOM"},
      {strategies::PmuCpuLUM(), "p_mu-cpu + LUM"},
      {strategies::MinIO(), "MIN-IO"},
      {strategies::MinIOSuOpt(), "MIN-IO-SUOPT"},
      {strategies::OptIOCpu(), "OPT-IO-CPU"},
  };
  for (const auto& [cfg, name] : named) {
    EXPECT_NE(LoadBalancingPolicy::Create(cfg), nullptr) << name;
    EXPECT_EQ(cfg.Name(), name);
  }
}

// Property sweep: every strategy returns a valid plan (degree in [1, n],
// distinct PEs, pages_per_pe covers the hash table).
class StrategyInvariantTest
    : public ::testing::TestWithParam<StrategyConfig> {};

TEST_P(StrategyInvariantTest, PlansAreWellFormed) {
  auto policy = LoadBalancingPolicy::Create(GetParam());
  sim::Rng rng(7);
  sim::Rng load_rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(load_rng.UniformInt(2, 80));
    ControlNode cn(n, trial % 2 == 0);
    for (int i = 0; i < n; ++i) {
      cn.Report(i, load_rng.Uniform(), (int)load_rng.UniformInt(0, 50),
                load_rng.Uniform());
    }
    JoinPlanRequest req;
    req.hash_table_pages = load_rng.UniformInt(1, 500);
    req.psu_opt = static_cast<int>(load_rng.UniformInt(1, 80));
    req.psu_noio = static_cast<int>(load_rng.UniformInt(1, 80));
    req.num_pes = n;
    JoinPlan plan = policy->Plan(req, cn, rng);

    ASSERT_GE(plan.degree, 1);
    ASSERT_LE(plan.degree, n);
    ASSERT_EQ(plan.pes.size(), static_cast<size_t>(plan.degree));
    std::set<PeId> unique(plan.pes.begin(), plan.pes.end());
    ASSERT_EQ(unique.size(), plan.pes.size());
    for (PeId pe : plan.pes) {
      ASSERT_GE(pe, 0);
      ASSERT_LT(pe, n);
    }
    ASSERT_GE(static_cast<int64_t>(plan.pages_per_pe) * plan.degree,
              req.hash_table_pages);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyInvariantTest,
    ::testing::Values(strategies::PsuOptRandom(), strategies::PsuOptLUC(),
                      strategies::PsuOptLUM(), strategies::PsuNoIORandom(),
                      strategies::PsuNoIOLUC(), strategies::PsuNoIOLUM(),
                      strategies::PmuCpuRandom(), strategies::PmuCpuLUM(),
                      strategies::MinIO(), strategies::MinIOSuOpt(),
                      strategies::OptIOCpu()),
    [](const ::testing::TestParamInfo<StrategyConfig>& info) {
      std::string name = info.param.Name();
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// MIN-IO internal helpers.
TEST(StrategyInternalTest, OverflowPages) {
  std::vector<PeLoadInfo> avail(3);
  avail[0] = {0, 0, 50, 0};
  avail[1] = {1, 0, 30, 0};
  avail[2] = {2, 0, 10, 0};
  EXPECT_EQ(internal::OverflowPages(avail, 100, 1), 50);
  EXPECT_EQ(internal::OverflowPages(avail, 100, 2), 40);
  EXPECT_EQ(internal::OverflowPages(avail, 100, 3), 70);
  EXPECT_EQ(internal::OverflowPages(avail, 40, 1), 0);
}

TEST(StrategyInternalTest, MinNoIoDegree) {
  std::vector<PeLoadInfo> avail(3);
  avail[0] = {0, 0, 50, 0};
  avail[1] = {1, 0, 45, 0};
  avail[2] = {2, 0, 10, 0};
  EXPECT_EQ(internal::MinNoIoDegree(avail, 90, 3), 2);
  EXPECT_EQ(internal::MinNoIoDegree(avail, 40, 3), 1);
  EXPECT_EQ(internal::MinNoIoDegree(avail, 200, 3), 0);  // impossible
}

TEST(StrategyInternalTest, MinOverflowTieBreaking) {
  std::vector<PeLoadInfo> avail(4);
  for (int i = 0; i < 4; ++i) avail[i] = {i, 0, 0, 0};  // nothing free
  // All overflows equal: smaller-preferring picks 1, larger-preferring 4.
  EXPECT_EQ(internal::MinOverflowDegree(avail, 100, 4, false), 1);
  EXPECT_EQ(internal::MinOverflowDegree(avail, 100, 4, true), 4);
}

}  // namespace
}  // namespace pdblb
