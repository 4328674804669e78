// Copyright 2026 the pdblb authors. MIT license.
//
// Property tests over the whole strategy family: for every policy and a
// fuzzed population of control-node states, the produced plan must satisfy
// the planner invariants.  Parameterized (TEST_P) over all strategies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/control_node.h"
#include "core/strategies.h"
#include "simkern/rng.h"

namespace pdblb {
namespace {

std::vector<StrategyConfig> AllStrategies() {
  std::vector<StrategyConfig> all = {
      strategies::PsuOptRandom(),   strategies::PsuOptLUC(),
      strategies::PsuOptLUM(),      strategies::PsuNoIORandom(),
      strategies::PsuNoIOLUC(),     strategies::PsuNoIOLUM(),
      strategies::PmuCpuRandom(),   strategies::PmuCpuLUM(),
      strategies::RateMatchRandom(), strategies::RateMatchLUC(),
      strategies::RateMatchLUM(),   strategies::MinIO(),
      strategies::MinIOSuOpt(),     strategies::OptIOCpu(),
  };
  // The skew-aware flag must not alter any planning invariant.
  StrategyConfig skew_aware = strategies::OptIOCpu();
  skew_aware.skew_aware_assignment = true;
  all.push_back(skew_aware);
  return all;
}

class StrategyPropertyTest : public testing::TestWithParam<StrategyConfig> {};

TEST_P(StrategyPropertyTest, PlanInvariantsUnderFuzzedStates) {
  const StrategyConfig& config = GetParam();
  auto policy = LoadBalancingPolicy::Create(config);
  ASSERT_NE(policy, nullptr);

  sim::Rng fuzz(12345);
  sim::Rng plan_rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    int n = static_cast<int>(fuzz.UniformInt(2, 80));
    ControlNode control(n, /*adaptive_feedback=*/trial % 2 == 0);
    for (PeId pe = 0; pe < n; ++pe) {
      control.Report(pe, fuzz.Uniform(),
                     static_cast<int>(fuzz.UniformInt(0, 60)),
                     fuzz.Uniform());
    }
    JoinPlanRequest req;
    req.num_pes = n;
    req.psu_opt = static_cast<int>(fuzz.UniformInt(1, n));
    req.psu_noio = static_cast<int>(fuzz.UniformInt(1, n));
    req.hash_table_pages = fuzz.UniformInt(1, 2000);
    req.scan_rate_tps = fuzz.Uniform(100.0, 50000.0);
    req.join_rate_tps = fuzz.Uniform(100.0, 50000.0);

    JoinPlan plan = policy->Plan(req, control, plan_rng);

    // Degree within bounds and consistent with the PE list.
    EXPECT_GE(plan.degree, 1) << config.Name() << " trial " << trial;
    EXPECT_LE(plan.degree, n) << config.Name() << " trial " << trial;
    ASSERT_EQ(static_cast<int>(plan.pes.size()), plan.degree);

    // All PEs distinct and valid.
    std::set<PeId> distinct(plan.pes.begin(), plan.pes.end());
    EXPECT_EQ(static_cast<int>(distinct.size()), plan.degree);
    for (PeId pe : plan.pes) {
      EXPECT_GE(pe, 0);
      EXPECT_LT(pe, n);
    }

    // The working-space target covers the hash table.
    EXPECT_GE(static_cast<int64_t>(plan.pages_per_pe) * plan.degree,
              req.hash_table_pages);
  }
}

TEST_P(StrategyPropertyTest, NameIsStableAndNonEmpty) {
  const StrategyConfig& config = GetParam();
  EXPECT_NE(LoadBalancingPolicy::Create(config), nullptr);
  EXPECT_FALSE(config.Name().empty());
  EXPECT_EQ(StrategyConfig(config).Name(), config.Name());
  // No other strategy of the family prints the same name.
  int same = 0;
  for (const StrategyConfig& other : AllStrategies()) {
    same += other.Name() == config.Name() ? 1 : 0;
  }
  EXPECT_EQ(same, 1) << config.Name();
}

// Pins the plans themselves, below the figure CSVs: every strategy (and a
// fixed degree) plans three back-to-back joins against each of 240 fuzzed
// control-node states, a third of them with PEs down and a quarter in the
// degraded overload state, and every plan's degree, PE list, pages_per_pe
// and degraded flag is hashed (FNV-1a) into one digest.
TEST(StrategyPlanDigestTest, PlanSequenceMatchesRecordedDigest) {
  std::vector<StrategyConfig> configs = AllStrategies();
  StrategyConfig fixed = strategies::PsuOptRandom();
  fixed.fixed_degree = 7;
  configs.push_back(fixed);

  uint64_t digest = 14695981039346656037ULL;
  auto mix = [&digest](int64_t v) {
    digest = (digest ^ static_cast<uint64_t>(v)) * 1099511628211ULL;
  };
  int degraded_plans = 0;
  for (const StrategyConfig& config : configs) {
    auto policy = LoadBalancingPolicy::Create(config);
    sim::Rng fuzz(4242);
    sim::Rng plan_rng(31);
    for (int trial = 0; trial < 240; ++trial) {
      const int n = static_cast<int>(fuzz.UniformInt(2, 80));
      ControlNode control(n, /*adaptive_feedback=*/trial % 2 == 0);
      for (PeId pe = 0; pe < n; ++pe) {
        control.Report(pe, fuzz.Uniform(),
                       static_cast<int>(fuzz.UniformInt(0, 60)),
                       fuzz.Uniform());
      }
      if (trial % 3 == 1) {
        // Up to half of the PEs go down; at least one stays alive.
        const int64_t down = fuzz.UniformInt(1, n / 2);
        for (int64_t i = 0; i < down; ++i) {
          control.MarkDown(static_cast<PeId>(fuzz.UniformInt(0, n - 1)));
        }
      }
      if (trial % 4 == 2) {
        OverloadConfig overload;
        overload.enabled = true;
        control.ConfigureOverload(overload);
        for (int round = 0; round < overload.enter_rounds; ++round) {
          control.NoteLoadRound(overload.degrade_queue_threshold);
        }
        ASSERT_EQ(control.overload_state(), OverloadState::kDegraded);
      }
      JoinPlanRequest req;
      req.num_pes = n;
      req.psu_opt = static_cast<int>(fuzz.UniformInt(1, n));
      req.psu_noio = static_cast<int>(fuzz.UniformInt(1, n));
      req.hash_table_pages = fuzz.UniformInt(1, 2000);
      req.scan_rate_tps = fuzz.Uniform(100.0, 50000.0);
      req.join_rate_tps = fuzz.Uniform(100.0, 50000.0);
      for (int join = 0; join < 3; ++join) {
        JoinPlan plan = policy->Plan(req, control, plan_rng);
        mix(plan.degree);
        for (PeId pe : plan.pes) mix(pe);
        mix(plan.pages_per_pe);
        mix(plan.degraded ? 1 : 0);
        degraded_plans += plan.degraded ? 1 : 0;
      }
    }
  }
  EXPECT_GT(degraded_plans, 0);  // the overload cap actually bound plans
  EXPECT_EQ(digest, 0xabb6baf29569b324ULL);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyPropertyTest, testing::ValuesIn(AllStrategies()),
    [](const testing::TestParamInfo<StrategyConfig>& info) {
      std::string name = info.param.Name();
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_" + std::to_string(info.index);
    });

/// Integrated no-I/O strategies: whenever *some* selection avoids temporary
/// file I/O, the plan must actually avoid it (min-free * degree >= need).
class NoIoGuaranteeTest : public testing::TestWithParam<StrategyConfig> {};

TEST_P(NoIoGuaranteeTest, AvoidsTempIoWheneverFeasible) {
  auto policy = LoadBalancingPolicy::Create(GetParam());
  sim::Rng fuzz(999);
  sim::Rng plan_rng(55);
  int feasible_cases = 0;
  for (int trial = 0; trial < 300; ++trial) {
    int n = static_cast<int>(fuzz.UniformInt(2, 40));
    ControlNode control(n, false);
    for (PeId pe = 0; pe < n; ++pe) {
      // Low CPU so OPT-IO-CPU's p_mu-cpu cap stays at p_su-opt = n.
      control.Report(pe, 0.0, static_cast<int>(fuzz.UniformInt(0, 50)), 0.0);
    }
    JoinPlanRequest req;
    req.num_pes = n;
    req.psu_opt = n;
    req.psu_noio = 1;
    req.hash_table_pages = fuzz.UniformInt(1, 600);

    auto avail = control.AvailMemorySorted();
    bool feasible =
        internal::MinNoIoDegree(avail, req.hash_table_pages, n) > 0;
    if (!feasible) continue;
    ++feasible_cases;

    JoinPlan plan = policy->Plan(req, control, plan_rng);
    int64_t min_free = avail[static_cast<size_t>(plan.degree) - 1]
                           .free_memory_pages;  // LUM = top-k of this order
    EXPECT_GE(min_free * plan.degree, req.hash_table_pages)
        << GetParam().Name() << " trial " << trial;
  }
  EXPECT_GT(feasible_cases, 50);  // the fuzz actually exercised the property
}

INSTANTIATE_TEST_SUITE_P(
    Integrated, NoIoGuaranteeTest,
    testing::Values(strategies::MinIO(), strategies::MinIOSuOpt(),
                    strategies::OptIOCpu()),
    [](const testing::TestParamInfo<StrategyConfig>& info) {
      std::string name = info.param.Name();
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pdblb
