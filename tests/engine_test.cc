// Copyright 2026 the pdblb authors. MIT license.
//
// Integration tests: full cluster simulations at small scale, cross-checked
// against closed-form expectations, plus determinism and workload-mix
// behavior.  These tests run complete discrete-event simulations (a few
// hundred milliseconds of wall time each).  Last, PAROP's startup and
// commit rounds on an idle cluster: they are netsim messages, costed,
// counted and slowed like every other.

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "engine/join_executor.h"
#include "engine/oltp_executor.h"
#include "engine/parop.h"
#include "expect_quiescent.h"

namespace pdblb {
namespace {

SystemConfig SmallConfig() {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 5000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.1;  // light load
  return cfg;
}

TEST(ClusterTest, ConstructionWiresComponents) {
  SystemConfig cfg = SmallConfig();
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.num_pes(), 10);
  EXPECT_EQ(cluster.db().a_nodes().size(), 2u);
  EXPECT_EQ(cluster.plan_request().num_pes, 10);
  EXPECT_EQ(cluster.plan_request().psu_noio, 3);
  EXPECT_GT(cluster.plan_request().hash_table_pages, 0);
  // Temp relation ids are unique and negative.
  int32_t t1 = cluster.NextTempRelationId();
  int32_t t2 = cluster.NextTempRelationId();
  EXPECT_LT(t1, 0);
  EXPECT_NE(t1, t2);
}

TEST(ClusterTest, SingleUserJoinMatchesCostModelBallpark) {
  SystemConfig cfg;
  cfg.num_pes = 40;
  cfg.single_user_mode = true;
  cfg.single_user_queries = 10;
  cfg.strategy = strategies::PsuOptLUM();
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  ExpectQuiescent(cluster);  // the background loops are unwound too
  EXPECT_EQ(r.joins_completed, 10);
  EXPECT_EQ(r.avg_degree, 30.0);  // p_su-opt with ample memory
  // The analytic model and the simulator share cost constants; the
  // simulated single-user response time must land within 2x of R(p_su-opt).
  CostModel cm(cfg);
  double predicted = cm.ResponseTimeMs(30);
  EXPECT_GT(r.join_rt_ms, 0.4 * predicted);
  EXPECT_LT(r.join_rt_ms, 2.5 * predicted);
  // Single-user with enough aggregate memory: no temp I/O at all.
  EXPECT_DOUBLE_EQ(r.temp_pages_written_per_join, 0.0);
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  SystemConfig cfg = SmallConfig();
  cfg.strategy = strategies::OptIOCpu();
  MetricsReport r1 = Cluster(cfg).Run();
  MetricsReport r2 = Cluster(cfg).Run();
  EXPECT_DOUBLE_EQ(r1.join_rt_ms, r2.join_rt_ms);
  EXPECT_EQ(r1.joins_completed, r2.joins_completed);
  EXPECT_DOUBLE_EQ(r1.cpu_utilization, r2.cpu_utilization);
}

TEST(ClusterTest, DifferentSeedsDiffer) {
  SystemConfig cfg = SmallConfig();
  MetricsReport r1 = Cluster(cfg).Run();
  cfg.seed = 777;
  MetricsReport r2 = Cluster(cfg).Run();
  EXPECT_NE(r1.join_rt_ms, r2.join_rt_ms);
}

TEST(ClusterTest, OpenWorkloadKeepsUpUnderLightLoad) {
  SystemConfig cfg = SmallConfig();
  cfg.strategy = strategies::PmuCpuLUM();
  MetricsReport r = Cluster(cfg).Run();
  // Offered: 0.1 QPS/PE * 10 PE = 1 QPS over 5 s of measurement.
  EXPECT_GT(r.joins_completed, 1);
  EXPECT_GT(r.join_throughput_qps, 0.5);
  EXPECT_LT(r.cpu_utilization, 0.5);
  EXPECT_GT(r.cpu_utilization, 0.0);
}

TEST(ClusterTest, UtilizationsAreWithinBounds) {
  SystemConfig cfg = SmallConfig();
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_GE(r.cpu_utilization, 0.0);
  EXPECT_LE(r.cpu_utilization, 1.0);
  EXPECT_GE(r.disk_utilization, 0.0);
  EXPECT_LE(r.disk_utilization, 1.0);
  EXPECT_GE(r.memory_utilization, 0.0);
  EXPECT_LE(r.memory_utilization, 1.0 + 1e-9);
}

TEST(ClusterTest, OltpOnlyWorkloadSustainsThroughput) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 5000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.0;  // OLTP only
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kANodes;  // 2 nodes * 100 TPS
  cfg.disk.disks_per_pe = 5;
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_EQ(r.joins_completed, 0);
  EXPECT_GT(r.oltp_completed, 800);  // ~1000 expected in 5 s
  EXPECT_LT(r.oltp_rt_ms, 500.0);
  EXPECT_GT(r.oltp_throughput_tps, 160.0);
}

TEST(ClusterTest, MixedWorkloadRunsBothClasses) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 4000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.075;
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kBNodes;
  cfg.disk.disks_per_pe = 5;
  cfg.strategy = strategies::OptIOCpu();
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_GT(r.joins_completed, 0);
  EXPECT_GT(r.oltp_completed, 0);
  EXPECT_GT(r.oltp_throughput_tps, 100.0);
}

TEST(ClusterTest, MemoryPressureProducesTempIo) {
  SystemConfig cfg = SmallConfig();
  cfg.buffer.buffer_pages = 5;  // fig-7 style tiny buffers
  cfg.join_query.arrival_rate_per_pe_qps = 0.05;
  cfg.strategy = strategies::PmuCpuLUM();
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_GT(r.joins_completed, 0);
  EXPECT_GT(r.temp_pages_written_per_join, 0.0);
}

TEST(ClusterTest, HigherLoadRaisesResponseTime) {
  SystemConfig light = SmallConfig();
  light.join_query.arrival_rate_per_pe_qps = 0.05;
  SystemConfig heavy = SmallConfig();
  heavy.join_query.arrival_rate_per_pe_qps = 0.3;
  heavy.measurement_ms = 8000.0;
  MetricsReport rl = Cluster(light).Run();
  MetricsReport rh = Cluster(heavy).Run();
  EXPECT_GT(rh.join_rt_ms, rl.join_rt_ms);
  EXPECT_GT(rh.cpu_utilization, rl.cpu_utilization);
}

TEST(ClusterTest, AdaptiveFeedbackSpreadsLoad) {
  // With feedback disabled and slow reports, back-to-back LUM joins herd
  // onto the same nodes; the adaptive bump avoids that.  Both must finish,
  // and feedback must not be slower.
  SystemConfig off = SmallConfig();
  off.adaptive_selection_feedback = false;
  off.strategy = strategies::PmuCpuLUM();
  SystemConfig on = off;
  on.adaptive_selection_feedback = true;
  MetricsReport r_off = Cluster(off).Run();
  MetricsReport r_on = Cluster(on).Run();
  EXPECT_GT(r_off.joins_completed, 0);
  EXPECT_GT(r_on.joins_completed, 0);
}

TEST(ClusterTest, SelectivityScalesJoinCost) {
  SystemConfig small = SmallConfig();
  small.join_query.scan_selectivity = 0.001;
  SystemConfig big = SmallConfig();
  big.join_query.scan_selectivity = 0.02;
  big.join_query.arrival_rate_per_pe_qps = 0.05;
  MetricsReport rs = Cluster(small).Run();
  MetricsReport rb = Cluster(big).Run();
  EXPECT_GT(rb.join_rt_ms, rs.join_rt_ms);
}

TEST(ClusterTest, SingleUserModeIgnoresArrivalRate) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.single_user_mode = true;
  cfg.single_user_queries = 5;
  cfg.join_query.arrival_rate_per_pe_qps = 100.0;  // must be ignored
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_EQ(r.joins_completed, 5);
}

// Every strategy must run a mixed workload without stalling, and end it
// with nothing in flight or held.
class StrategySmokeTest : public ::testing::TestWithParam<StrategyConfig> {};

TEST_P(StrategySmokeTest, CompletesMixedWorkload) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.warmup_ms = 500.0;
  cfg.measurement_ms = 3000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.1;
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kANodes;
  cfg.disk.disks_per_pe = 5;
  cfg.strategy = GetParam();
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  ExpectQuiescent(cluster);
  EXPECT_GT(r.joins_completed, 0) << cfg.strategy.Name();
  EXPECT_GT(r.oltp_completed, 0) << cfg.strategy.Name();
  EXPECT_GE(r.avg_degree, 1.0);
  EXPECT_LE(r.avg_degree, 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySmokeTest,
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

// --- PAROP's startup and commit messages -----------------------------------

struct RoundResult {
  SimTime ms = -1;
  int64_t messages = 0;
};

// Runs `round` between PE 1 (the coordinator) and PE 2 on an idle 4-PE
// cluster whose 1<->2 link is slowed by `factor`.
RoundResult RunRound(sim::Task<> (*round)(Cluster&, PeId, PeId),
                     double factor) {
  SystemConfig cfg;
  cfg.num_pes = 4;
  Cluster c(cfg);
  if (factor > 1.0) c.net().SetLinkDelayMultiplier(1, 2, factor);
  RoundResult out;
  c.sched().Spawn([](Cluster& cl, sim::Task<> (*r)(Cluster&, PeId, PeId),
                     RoundResult* res) -> sim::Task<> {
    co_await r(cl, 1, 2);
    res->ms = cl.sched().Now();
  }(c, round, &out));
  c.sched().Run();
  out.messages = c.net().messages_sent();
  return out;
}

TEST(ParopMessageTest, CommitRoundAcrossAHealthyPairKeepsItsTiming) {
  const SystemConfig cfg;
  const CpuCosts& k = cfg.costs;
  const SimTime wire = cfg.network.wire_time_per_packet_ms;
  const SimTime send =
      InstructionsToMs(k.send_message + k.copy_message, cfg.mips_per_pe);
  const SimTime receive =
      InstructionsToMs(k.receive_message + k.copy_message, cfg.mips_per_pe);
  // The commit message's wire and receive at the participant, then the
  // acknowledgement's send, wire and receive at the coordinator.
  EXPECT_DOUBLE_EQ(RunRound(parop::CommitRound, 1.0).ms,
                   wire + receive + send + wire + receive);
}

TEST(ParopMessageTest, SlowLinkStretchesEveryCommitCrossing) {
  const SimTime wire = SystemConfig().network.wire_time_per_packet_ms;
  const double factor = 4.0;
  // A read-only round crosses the link twice, a two-phase commit four times.
  EXPECT_NEAR(RunRound(parop::CommitRound, factor).ms -
                  RunRound(parop::CommitRound, 1.0).ms,
              2 * (factor - 1.0) * wire, 1e-9);
  EXPECT_NEAR(RunRound(parop::TwoPhaseCommitRounds, factor).ms -
                  RunRound(parop::TwoPhaseCommitRounds, 1.0).ms,
              4 * (factor - 1.0) * wire, 1e-9);
}

TEST(ParopMessageTest, CommitRoundsAreCountedByNetsim) {
  EXPECT_EQ(RunRound(parop::CommitRound, 1.0).messages, 2);
  EXPECT_EQ(RunRound(parop::TwoPhaseCommitRounds, 1.0).messages, 4);
  EXPECT_EQ(RunRound(parop::StartSubquery, 1.0).messages, 1);
}

TEST(ParopMessageTest, StartupFanOutSerializesTheCoordinatorsSends) {
  SystemConfig cfg;
  cfg.num_pes = 4;
  Cluster c(cfg);
  SimTime end = -1;
  c.sched().Spawn([](Cluster& cl, SimTime* out) -> sim::Task<> {
    const std::vector<PeId> pes = {0, 1, 2, 3};
    co_await parop::FanOut(cl, 0, pes, parop::StartSubquery);
    *out = cl.sched().Now();
  }(c, &end));
  c.sched().Run();
  // The coordinator sends three messages back to back; the last one's wire
  // and receive end the round.
  const SimTime send = c.net().SendMs(1);
  EXPECT_DOUBLE_EQ(end, send + send + send +
                            cfg.network.wire_time_per_packet_ms +
                            c.net().ReceiveMs(1));
  EXPECT_EQ(c.net().messages_sent(), 3);
  EXPECT_EQ(c.pe(0).cpu().completed(), 3u);
}

}  // namespace
}  // namespace pdblb
