// Copyright 2026 the pdblb authors. MIT license.
//
// Parameterized sweeps over the analytic cost model and the planning
// formulas: monotonicity and anchor stability across system sizes,
// selectivities and memory sizes, and the join's memory floor (TEST_P
// property style).

#include <gtest/gtest.h>

#include <tuple>

#include "bufmgr/buffer_manager.h"
#include "core/cost_model.h"
#include "iosim/disk.h"
#include "join/pphj.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"

namespace pdblb {
namespace {

// ------------------- sweep over (num_pes, selectivity) ---------------------

using SizeSel = std::tuple<int, double>;

class CostModelSweepTest : public testing::TestWithParam<SizeSel> {
 protected:
  SystemConfig Config() const {
    SystemConfig cfg;
    cfg.num_pes = std::get<0>(GetParam());
    cfg.join_query.scan_selectivity = std::get<1>(GetParam());
    return cfg;
  }
};

TEST_P(CostModelSweepTest, PsuOptIsTheArgmin) {
  SystemConfig cfg = Config();
  CostModel model(cfg);
  int p_opt = model.PsuOpt();
  ASSERT_GE(p_opt, 1);
  ASSERT_LE(p_opt, cfg.num_pes);
  double best = model.ResponseTimeMs(p_opt);
  for (int p = 1; p <= cfg.num_pes; ++p) {
    EXPECT_LE(best, model.ResponseTimeMs(p) + 1e-9) << "p=" << p;
  }
}

TEST_P(CostModelSweepTest, PmuCpuMonotoneDecreasingInUtilization) {
  SystemConfig cfg = Config();
  const int psu_opt = CostModel(cfg).PsuOpt();
  int last = PmuCpu(psu_opt, 0.0, cfg.num_pes);
  EXPECT_EQ(last, psu_opt);  // no reduction when idle
  for (double u = 0.05; u <= 1.0; u += 0.05) {
    int p = PmuCpu(psu_opt, u, cfg.num_pes);
    EXPECT_LE(p, last) << "u=" << u;
    EXPECT_GE(p, 1);
    last = p;
  }
  EXPECT_EQ(PmuCpu(psu_opt, 1.0, cfg.num_pes), 1);
}

TEST_P(CostModelSweepTest, PsuNoIOMatchesFormula31) {
  SystemConfig cfg = Config();
  CostModel model(cfg);
  int64_t need = model.HashTablePages();
  int p = model.PsuNoIO();
  // p processors suffice, p-1 do not (unless clamped at n).
  EXPECT_GE(static_cast<int64_t>(p) * cfg.buffer.buffer_pages,
            p == cfg.num_pes ? 0 : need);
  if (p > 1) {
    EXPECT_LT(static_cast<int64_t>(p - 1) * cfg.buffer.buffer_pages, need);
  }
}

// The memory floor of one of p join processors is PPHJ's minimum working
// space for its 1/p share of the inner input (Pphj::min_pages, the floor a
// join waits for in the memory queue).
TEST_P(CostModelSweepTest, MinWorkingSpaceShrinksWithDegree) {
  SystemConfig cfg = Config();
  sim::Scheduler sched;
  sim::Resource cpu(sched, 1, "cpu");
  DiskArray disks(sched, cfg.disk, cfg.costs, cfg.mips_per_pe, cpu, "disk");
  BufferManager buffer(sched, cfg.buffer, disks, "buf");
  auto min_pages = [&](int p) {
    LocalJoinParams params;
    params.expected_inner_tuples = (cfg.InnerInputTuples() + p - 1) / p;
    params.blocking_factor = cfg.relation_a.blocking_factor;
    params.fudge_factor = cfg.join_query.fudge_factor;
    return Pphj(sched, buffer, disks, cpu, cfg.costs, cfg.mips_per_pe,
                params)
        .min_pages();
  };
  int last = min_pages(1);
  for (int p = 2; p <= cfg.num_pes; p *= 2) {
    int w = min_pages(p);
    EXPECT_LE(w, last) << "p=" << p;
    EXPECT_GE(w, 1);
    last = w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSelectivities, CostModelSweepTest,
    testing::Combine(testing::Values(10, 20, 40, 60, 80),
                     testing::Values(0.001, 0.01, 0.02, 0.05)),
    [](const testing::TestParamInfo<SizeSel>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_sel" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 1000));
    });

// ----------------------------- directional checks --------------------------

TEST(CostModelDirectionTest, LargerJoinsWantMoreProcessors) {
  SystemConfig small;
  small.num_pes = 80;
  small.join_query.scan_selectivity = 0.001;
  SystemConfig large = small;
  large.join_query.scan_selectivity = 0.05;
  EXPECT_LT(CostModel(small).PsuOpt(), CostModel(large).PsuOpt());
  EXPECT_LE(CostModel(small).PsuNoIO(), CostModel(large).PsuNoIO());
}

TEST(CostModelDirectionTest, MoreMemoryFewerNoIoProcessors) {
  SystemConfig tight;
  tight.num_pes = 80;
  tight.buffer.buffer_pages = 25;
  SystemConfig roomy = tight;
  roomy.buffer.buffer_pages = 200;
  EXPECT_GT(CostModel(tight).PsuNoIO(), CostModel(roomy).PsuNoIO());
}

TEST(CostModelDirectionTest, FasterCpusLowerResponseTimes) {
  SystemConfig slow;
  slow.num_pes = 40;
  SystemConfig fast = slow;
  fast.mips_per_pe = 40.0;
  CostModel sm(slow);
  CostModel fm(fast);
  for (int p : {1, 5, 10, 30}) {
    EXPECT_LT(fm.ResponseTimeMs(p), sm.ResponseTimeMs(p)) << "p=" << p;
  }
}

TEST(CostModelDirectionTest, RatesScaleWithMips) {
  SystemConfig slow;
  slow.num_pes = 40;
  SystemConfig fast = slow;
  fast.mips_per_pe = 40.0;
  EXPECT_GT(CostModel(fast).JoinConsumptionRateTps(),
            CostModel(slow).JoinConsumptionRateTps());
}

}  // namespace
}  // namespace pdblb
