// Copyright 2026 the pdblb authors. MIT license.
//
// Chaos invariant suite: the three gray-failure domains (transient disk
// errors + slow-disk windows, link degradation + partitions, overload
// shedding/degradation) unit-tested in isolation and composed at cluster
// level.  The composed runs check the conservation invariants — no admission
// slot, buffer reservation or memory-queue entry survives the run — and the
// determinism contract (identical reports across reruns, identical sweep
// CSV across worker counts).  A seeded generator also draws about 100 fault
// specs from the whole clause grammar and replays each.  The whole binary
// runs under leak detection, so every chaotic run doubles as a
// no-leaked-frames check.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/config.h"
#include "core/control_node.h"
#include "engine/cluster.h"
#include "expect_identical_reports.h"
#include "expect_quiescent.h"
#include "iosim/disk.h"
#include "netsim/network.h"
#include "runner/sweep.h"
#include "simkern/resource.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {
namespace {

// ------------------------------------------------------------ disk domain

struct DiskFixture {
  sim::Scheduler sched;
  sim::Resource cpu{sched, 1, "cpu"};
  CpuCosts costs;
  DiskConfig config;
  std::unique_ptr<DiskArray> disks;

  DiskFixture() {
    disks = std::make_unique<DiskArray>(sched, config, costs, 20.0, cpu, "d");
  }

  sim::Task<> ReadPages(int count) {
    for (int i = 0; i < count; ++i) {
      co_await disks->Read(PageKey{1, static_cast<int64_t>(i)},
                           AccessPattern::kRandom);
    }
  }
};

TEST(DiskChaosTest, InjectedErrorsAreCountedAndDeterministic) {
  auto run = [](uint64_t seed) {
    DiskFixture f;
    f.disks->ConfigureFaults(/*error_rate=*/0.2, sim::Rng(seed));
    f.sched.Spawn(f.ReadPages(200));
    f.sched.Run();
    return std::pair<int64_t, int64_t>(f.disks->io_errors(),
                                       f.disks->io_retries());
  };
  auto [errors, retries] = run(7);
  EXPECT_GT(errors, 0) << "20% error rate over 200 reads drew no errors";
  EXPECT_GE(errors, retries) << "a retry without a preceding error";
  auto [errors2, retries2] = run(7);
  EXPECT_EQ(errors, errors2) << "same seed, different error count";
  EXPECT_EQ(retries, retries2);
}

TEST(DiskChaosTest, RetryChainIsCappedByTheLimit) {
  DiskFixture f;
  // Error rate 1.0: every draw fails, so a single physical access burns the
  // whole retry budget and surfaces the final error without reissue —
  // exactly 3 retries (the retry limit) and 4 errors.
  f.disks->ConfigureFaults(1.0, sim::Rng(1));
  f.sched.Spawn(f.ReadPages(1));
  f.sched.Run();
  EXPECT_EQ(f.disks->io_retries(), 3);
  EXPECT_EQ(f.disks->io_errors(), 4);
}

TEST(DiskChaosTest, ServiceMultiplierStretchesAndAccountsTime) {
  auto elapsed_with = [](double multiplier) {
    DiskFixture f;
    f.disks->SetServiceMultiplier(multiplier);
    f.sched.Spawn(f.ReadPages(20));
    f.sched.Run();
    return std::pair<double, double>(f.sched.Now(),
                                     f.disks->slow_disk_extra_ms());
  };
  auto [normal_ms, normal_extra] = elapsed_with(1.0);
  auto [slow_ms, slow_extra] = elapsed_with(3.0);
  EXPECT_GT(slow_ms, normal_ms) << "x3 disk did not slow the reads";
  EXPECT_GT(slow_extra, 0.0);
  EXPECT_EQ(normal_extra, 0.0) << "x1 must be an exact identity";
  // The injected extra accounts the whole stretch of the physical service.
  EXPECT_NEAR(slow_ms - normal_ms, slow_extra, 1e-9);
}

TEST(DiskChaosTest, UnarmedDiskKeepsZeroFaultCounters) {
  DiskFixture f;
  f.sched.Spawn(f.ReadPages(50));
  f.sched.Run();
  EXPECT_EQ(f.disks->io_errors(), 0);
  EXPECT_EQ(f.disks->io_retries(), 0);
  EXPECT_EQ(f.disks->slow_disk_extra_ms(), 0.0);
}

// --------------------------------------------------------- network domain

struct NetFixture {
  sim::Scheduler sched;
  std::vector<std::unique_ptr<sim::Resource>> cpus;
  std::unique_ptr<Network> net;

  explicit NetFixture(int n) {
    CpuCosts costs;
    NetworkConfig config;
    std::vector<sim::Resource*> ptrs;
    for (int i = 0; i < n; ++i) {
      cpus.push_back(std::make_unique<sim::Resource>(sched, 1, "cpu"));
      ptrs.push_back(cpus.back().get());
    }
    net = std::make_unique<Network>(sched, config, costs, 20.0, ptrs);
  }
};

TEST(NetworkChaosTest, PartitionFlagsAreSymmetric) {
  NetFixture f(4);
  EXPECT_FALSE(f.net->AnyPartitions());
  EXPECT_FALSE(f.net->Partitioned(1, 2));
  f.net->SetPartitioned(1, 2, true);
  EXPECT_TRUE(f.net->Partitioned(1, 2));
  EXPECT_TRUE(f.net->Partitioned(2, 1)) << "partition must be symmetric";
  EXPECT_FALSE(f.net->Partitioned(0, 3));
  EXPECT_TRUE(f.net->AnyPartitions());
  f.net->SetPartitioned(1, 2, true);  // redundant cut must not double-count
  f.net->SetPartitioned(2, 1, false);
  EXPECT_FALSE(f.net->AnyPartitions()) << "heal left a phantom partition";
}

TEST(NetworkChaosTest, LinkDelayMultiplierStretchesTransfer) {
  auto elapsed_with = [](bool slow) {
    NetFixture f(2);
    if (slow) f.net->SetLinkDelayMultiplier(0, 1, 4.0);
    f.sched.Spawn(f.net->Transfer(0, 1, 1 << 20));
    f.sched.Run();
    return f.sched.Now();
  };
  double normal = elapsed_with(false);
  double slow = elapsed_with(true);
  EXPECT_GT(slow, normal) << "x4 wire delay did not slow the transfer";
}

// -------------------------------------------------------- overload domain

OverloadConfig TightOverload() {
  OverloadConfig oc;
  oc.enabled = true;
  oc.degrade_queue_threshold = 4.0;
  oc.shed_queue_threshold = 8.0;
  oc.exit_queue_threshold = 1.0;
  oc.enter_rounds = 2;
  oc.exit_rounds = 2;
  return oc;
}

TEST(OverloadStateMachineTest, EscalatesAndRecoversWithHysteresis) {
  ControlNode cn(4, /*adaptive_feedback=*/false);
  cn.ConfigureOverload(TightOverload());
  EXPECT_EQ(cn.overload_state(), OverloadState::kNormal);
  EXPECT_EQ(cn.DegreeCap(4), 4) << "normal state must not cap";

  cn.NoteLoadRound(5.0);  // first hot round: hysteresis holds
  EXPECT_EQ(cn.overload_state(), OverloadState::kNormal);
  cn.NoteLoadRound(5.0);  // second consecutive hot round: degrade
  EXPECT_EQ(cn.overload_state(), OverloadState::kDegraded);
  EXPECT_EQ(cn.DegreeCap(4), 2) << "ceil(4 alive * 0.5)";
  EXPECT_EQ(cn.DegreeCap(1), 1) << "cap never below 1";
  EXPECT_FALSE(cn.ShouldShed());

  cn.NoteLoadRound(10.0);
  EXPECT_EQ(cn.overload_state(), OverloadState::kDegraded);
  cn.NoteLoadRound(10.0);  // second round past the shed threshold
  EXPECT_EQ(cn.overload_state(), OverloadState::kShedding);
  EXPECT_TRUE(cn.ShouldShed());

  cn.NoteLoadRound(0.0);  // queues drain...
  EXPECT_TRUE(cn.ShouldShed()) << "one cool round must not exit shedding";
  cn.NoteLoadRound(0.0);
  EXPECT_EQ(cn.overload_state(), OverloadState::kDegraded);
  cn.NoteLoadRound(0.0);
  cn.NoteLoadRound(0.0);
  EXPECT_EQ(cn.overload_state(), OverloadState::kNormal);
  EXPECT_EQ(cn.DegreeCap(4), 4);
}

TEST(OverloadStateMachineTest, BorderlineRoundsResetTheStreak) {
  ControlNode cn(4, false);
  cn.ConfigureOverload(TightOverload());
  // Alternating hot/cool rounds never accumulate enter_rounds = 2 in a row.
  for (int i = 0; i < 10; ++i) {
    cn.NoteLoadRound(i % 2 == 0 ? 5.0 : 0.0);
    EXPECT_EQ(cn.overload_state(), OverloadState::kNormal) << "round " << i;
  }
}

TEST(OverloadStateMachineTest, DisabledConfigIsInert) {
  ControlNode cn(4, false);  // overload never configured
  for (int i = 0; i < 10; ++i) cn.NoteLoadRound(1000.0);
  EXPECT_EQ(cn.overload_state(), OverloadState::kNormal);
  EXPECT_EQ(cn.DegreeCap(4), 4);
  EXPECT_FALSE(cn.ShouldShed());
}

// ------------------------------------------------------- composed cluster

/// All three domains at once, mirroring bench/chaos.cc intensity 3 on a
/// shorter horizon: background disk errors, a slow-disk window, a degraded
/// link, a partition, a crash/repair cycle, and tight overload thresholds
/// under elevated load.
SystemConfig ComposedChaosConfig() {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.multiprogramming_level = 2;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 6000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 1.0;
  cfg.faults.io_error_rate = 0.03;
  cfg.faults.events = {{2000.0, FaultKind::kSlowDisk, 1, -1, 4.0},
                       {4500.0, FaultKind::kSlowDisk, 1, -1, 1.0},
                       {2000.0, FaultKind::kSlowLink, 4, 5, 4.0},
                       {2500.0, FaultKind::kPartition, 0, 3},
                       {3800.0, FaultKind::kHeal, 0, 3},
                       {3000.0, FaultKind::kCrash, 2},
                       {4200.0, FaultKind::kRecover, 2}};
  cfg.faults.query_timeout_ms = 8000.0;
  cfg.faults.retry.max_attempts = 6;
  cfg.faults.retry.initial_backoff_ms = 100.0;
  cfg.overload.enabled = true;
  cfg.overload.degrade_queue_threshold = 1.0;
  cfg.overload.shed_queue_threshold = 2.0;
  cfg.overload.exit_queue_threshold = 0.5;
  cfg.overload.enter_rounds = 2;
  cfg.overload.exit_rounds = 3;
  cfg.control_report_interval_ms = 500.0;
  return cfg;
}

TEST(ChaosClusterTest, ComposedChaosHoldsConservationInvariants) {
  SystemConfig cfg = ComposedChaosConfig();
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();

  // Every domain fired.
  EXPECT_GT(r.joins_completed, 0) << "chaos starved the workload completely";
  EXPECT_GT(r.io_errors, 0);
  EXPECT_GE(r.io_errors, r.io_retries);
  EXPECT_GT(r.slow_disk_ms, 0.0);
  EXPECT_EQ(r.link_partitions, 1);
  EXPECT_EQ(r.pe_crashes, 1);
  EXPECT_EQ(r.pe_recoveries, 1);
  EXPECT_GT(r.queries_retried, 0) << "partition/crash victims never retried";

  // Conservation: after the unwind no admission slot, buffer reservation,
  // memory-queue entry, CPU server or lock survives, at any PE — every
  // cancellation path released what it held.
  ExpectQuiescent(cluster);
  for (PeId pe = 0; pe < cfg.num_pes; ++pe) {
    EXPECT_FALSE(cluster.pe(pe).failed()) << "pe " << pe;
  }
}

TEST(ChaosClusterTest, ComposedChaosIsDeterministicAcrossReruns) {
  SystemConfig cfg = ComposedChaosConfig();
  MetricsReport r1 = Cluster(cfg).Run();
  MetricsReport r2 = Cluster(cfg).Run();
  EXPECT_EQ(r1.joins_completed, r2.joins_completed);
  EXPECT_DOUBLE_EQ(r1.join_rt_ms, r2.join_rt_ms);
  EXPECT_EQ(r1.queries_shed, r2.queries_shed);
  EXPECT_EQ(r1.queries_degraded, r2.queries_degraded);
  EXPECT_EQ(r1.queries_retried, r2.queries_retried);
  EXPECT_EQ(r1.queries_failed, r2.queries_failed);
  EXPECT_EQ(r1.io_errors, r2.io_errors);
  EXPECT_EQ(r1.io_retries, r2.io_retries);
  EXPECT_EQ(r1.link_partitions, r2.link_partitions);
  EXPECT_DOUBLE_EQ(r1.slow_disk_ms, r2.slow_disk_ms);
  EXPECT_EQ(r1.kernel_events, r2.kernel_events);
}

TEST(ChaosClusterTest, OverloadShedsAndDegradesUnderSustainedPressure) {
  // Overload alone (no fault injection): queries run unsupervised, so this
  // exercises the direct shed/degrade accounting path in the executor.
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.multiprogramming_level = 1;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 8000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 2.0;
  cfg.overload.enabled = true;
  cfg.overload.degrade_queue_threshold = 0.5;
  cfg.overload.shed_queue_threshold = 1.0;
  cfg.overload.exit_queue_threshold = 0.25;
  cfg.overload.enter_rounds = 1;
  cfg.control_report_interval_ms = 500.0;
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_GT(r.queries_shed, 0) << "4x overload never triggered shedding";
  EXPECT_GT(r.queries_degraded, 0) << "no plan was overload-capped";
  EXPECT_GT(r.joins_completed, 0) << "shedding must not starve admission";
  EXPECT_EQ(r.queries_failed, 0) << "shed queries must not count as failed";
}

// Shedding is a fact of the query class (engine/query.h): while the control
// node sheds load, both join classes are rejected at admission and the
// scan, the update and the OLTP transaction run to completion.
TEST(ChaosClusterTest, OnlyJoinsAreShed) {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.overload.enabled = true;
  cfg.oltp.enabled = true;
  Cluster cluster(cfg);
  for (int round = 0; round < 10; ++round) {
    cluster.control().NoteLoadRound(1e6);
  }
  ASSERT_EQ(cluster.control().overload_state(), OverloadState::kShedding);

  // One query of each class, without the background loops of Run().
  sim::Scheduler& sched = cluster.sched();
  for (size_t i = 0; i < kNumQueryClasses; ++i) {
    sched.Spawn(ExecuteQuery(cluster, static_cast<QueryClass>(i),
                             cluster.db().oltp_nodes()[0], nullptr));
  }
  sched.Run();

  const MetricsCollector& m = cluster.metrics();
  EXPECT_EQ(m.counters().queries_shed, 2);
  EXPECT_EQ(m.queries(QueryClass::kJoin).response_ms.count(), 0);
  EXPECT_EQ(m.queries(QueryClass::kMultiwayJoin).response_ms.count(), 0);
  EXPECT_EQ(m.queries(QueryClass::kScan).response_ms.count(), 1);
  EXPECT_EQ(m.queries(QueryClass::kUpdate).response_ms.count(), 1);
  EXPECT_EQ(m.queries(QueryClass::kOltp).response_ms.count(), 1);
}

TEST(ChaosClusterTest, SlackOverloadThresholdsMatchDisabledRunExactly) {
  // An enabled-but-never-triggered overload controller is pure bookkeeping:
  // the event stream must be identical to the disabled configuration.
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 5000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.4;
  MetricsReport off = Cluster(cfg).Run();
  cfg.overload.enabled = true;
  cfg.overload.degrade_queue_threshold = 1e9;
  cfg.overload.shed_queue_threshold = 1e9;
  MetricsReport on = Cluster(cfg).Run();
  EXPECT_EQ(on.kernel_events, off.kernel_events)
      << "idle overload bookkeeping perturbed the event stream";
  EXPECT_EQ(on.joins_completed, off.joins_completed);
  EXPECT_DOUBLE_EQ(on.join_rt_ms, off.join_rt_ms);
  EXPECT_EQ(on.queries_shed, 0);
  EXPECT_EQ(on.queries_degraded, 0);
}

TEST(ChaosClusterTest, SweepCsvIsIdenticalAcrossWorkerCounts) {
  runner::Sweep sweep;
  SystemConfig chaotic = ComposedChaosConfig();
  chaotic.measurement_ms = 3000.0;
  sweep.Add({"chaos_test/a", "a", 0, "0", chaotic});
  sweep.Add({"chaos_test/b", "b", 1, "1", chaotic});
  sweep.Add({"chaos_test/c", "c", 2, "2", chaotic});
  runner::SweepOptions opts;
  opts.jobs = 1;
  std::string csv1 = runner::ResultsCsv(sweep.Run(opts));
  opts.jobs = 3;
  std::string csv3 = runner::ResultsCsv(sweep.Run(opts));
  EXPECT_EQ(csv1, csv3) << "worker count leaked into the chaos CSV";
  EXPECT_NE(csv1.find("queries_shed,io_errors,io_retries,link_partitions,"
                      "slow_disk_ms"),
            std::string::npos)
      << "robustness columns missing from the CSV header";
}

// ------------------------------------------- randomized composed specs

// Draws one clause set from the ParseFaultSpec grammar for a 10-PE cluster.
// When an addpe is drawn, pe9 is its spare: held out of the initial
// declustering and added mid-run.  Clause times fall inside the run
// (500 ms warm-up + 6000 ms measurement); every recovery and heal follows
// its crash or partition.  Only the spare is ever added, and only a B node
// or the added spare drains: the A nodes (pe0, pe1) host OLTP, which does
// not migrate, so Validate rejects draining them.
std::string DrawFaultSpec(sim::Rng& rng) {
  constexpr int kSpare = 9;
  std::string spec;
  // A scheduled clause, kind@<ms>:<target>, and a key=value clause.  Each
  // draw is a statement of its own: the order of evaluation inside one
  // expression is unspecified.
  auto clause = [&spec](const char* kind, int64_t ms, const std::string& to) {
    spec += std::string(kind) + "@" + std::to_string(ms) + ":" + to + ";";
  };
  auto set = [&spec](const char* key, const std::string& value) {
    spec += std::string(key) + "=" + value + ";";
  };
  auto pe = [](int64_t id) { return "pe" + std::to_string(id); };
  auto link = [&rng, &pe] {
    const int64_t a = rng.UniformInt(0, kSpare);
    const int64_t b = (a + rng.UniformInt(1, kSpare)) % (kSpare + 1);
    return pe(a) + "-" + pe(b);
  };
  auto factor = [&rng] { return ":x" + std::to_string(rng.UniformInt(2, 8)); };
  const bool spare = rng.Uniform() < 0.5;

  // crash/recover pairs, on distinct PEs so no clause repeats.
  const int64_t crashes = rng.UniformInt(0, 2);
  const int64_t first_victim = rng.UniformInt(0, kSpare);
  for (int64_t k = 0; k < crashes; ++k) {
    const std::string victim = pe((first_victim + 3 * k) % (kSpare + 1));
    const int64_t at = rng.UniformInt(600, 5500);
    clause("crash", at, victim);
    if (rng.Uniform() < 0.8) {
      clause("recover", at + rng.UniformInt(200, 2000), victim);
    }
  }
  if (rng.Uniform() < 0.5) {
    const std::string cut = link();
    const int64_t at = rng.UniformInt(600, 5500);
    clause("partition", at, cut);
    if (rng.Uniform() < 0.7) {
      clause("heal", at + rng.UniformInt(100, 1500), cut);
    }
  }
  if (rng.Uniform() < 0.4) {
    const std::string disk = pe(rng.UniformInt(0, kSpare));
    const int64_t at = rng.UniformInt(500, 5000);
    clause("slowdisk", at, disk + factor());
    if (rng.Uniform() < 0.5) {
      clause("slowdisk", at + rng.UniformInt(200, 1500), disk + ":x1");
    }
  }
  if (rng.Uniform() < 0.4) {
    const std::string slow = link() + factor();
    clause("slowlink", rng.UniformInt(500, 5500), slow);
  }

  int64_t added_at = -1;
  if (spare) {
    added_at = rng.UniformInt(500, 3500);
    clause("addpe", added_at, pe(kSpare));
  }
  if (rng.Uniform() < 0.6) {
    if (spare && rng.Uniform() < 0.3) {
      clause("drainpe", added_at + rng.UniformInt(500, 1500), pe(kSpare));
    } else {
      const std::string target = pe(rng.UniformInt(2, spare ? kSpare - 1
                                                            : kSpare));
      clause("drainpe", rng.UniformInt(500, 4500), target);
    }
  }

  if (rng.Uniform() < 0.5) {
    set("timeout", std::to_string(rng.UniformInt(200, 3000)));
  }
  if (rng.Uniform() < 0.3) {
    set("iorate", std::to_string(rng.Uniform(0.01, 0.2)));
  }
  if (rng.Uniform() < 0.3) {
    set("rate", std::to_string(rng.Uniform(0.5, 4.0)));
    set("mttr", std::to_string(rng.UniformInt(300, 2000)));
  }
  if (rng.Uniform() < 0.5) {
    set("retries", std::to_string(rng.UniformInt(1, 5)));
  }
  return spec;
}

// All five query classes on a small 10-PE cluster, with relations small
// enough that a fragment migration finishes within the run.  The CC scheme
// rotates with `i`, and every other spec runs with overload control on.
SystemConfig RandomSpecCluster(int i) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.seed = 7000 + static_cast<uint64_t>(i);
  cfg.warmup_ms = 500.0;
  cfg.measurement_ms = 6000.0;
  cfg.relation_a.num_tuples = 10000;
  cfg.relation_b.num_tuples = 30000;
  cfg.relation_c.num_tuples = 20000;
  cfg.join_query.arrival_rate_per_pe_qps = 0.5;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.2;
  cfg.update_query.arrival_rate_per_pe_qps = 0.2;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.1;
  cfg.oltp.enabled = true;
  cfg.oltp.tps_per_node = 20.0;
  constexpr CcScheme kSchemes[] = {CcScheme::kNoReadLocks,
                                   CcScheme::kTwoPhaseLocking,
                                   CcScheme::kMultiversion};
  cfg.cc_scheme = kSchemes[i % 3];
  if (i % 2 == 1) {
    cfg.overload.enabled = true;
    cfg.overload.degrade_queue_threshold = 1.0;
    cfg.overload.shed_queue_threshold = 2.0;
    cfg.overload.exit_queue_threshold = 0.5;
    cfg.control_report_interval_ms = 500.0;
  }
  return cfg;
}

// Roughly 100 drawn clause sets, each run twice: every spec must parse and
// validate, replay to an identical report, and end quiescent: the unwind
// after the window returns every slot, reservation and lock, whatever the
// faults left in flight.  Across the set, each fault
// path must fire at least once, so a generator that drifts into drawing
// nothing but no-ops fails here instead of passing vacuously.
TEST(RandomFaultSpecTest, ComposedSpecsReplayIdentically) {
  constexpr int kSpecs = 100;
  sim::Rng rng(20261019);
  int64_t crashes = 0, partitions = 0, retries = 0, timeouts = 0;
  int64_t migrated = 0, aborted_migrations = 0;
  for (int i = 0; i < kSpecs; ++i) {
    const std::string spec = DrawFaultSpec(rng);
    SCOPED_TRACE("spec " + std::to_string(i) + ": " + spec);
    SystemConfig cfg = RandomSpecCluster(i);
    ASSERT_TRUE(ParseFaultSpec(spec, &cfg.faults).ok());
    const Status valid = cfg.Validate();
    ASSERT_TRUE(valid.ok()) << valid.ToString();
    Cluster cluster(cfg);
    const MetricsReport r = cluster.Run();
    ExpectQuiescent(cluster);
    ExpectIdenticalReports(r, Cluster(cfg).Run());
    crashes += r.pe_crashes;
    partitions += r.link_partitions;
    retries += r.queries_retried;
    timeouts += r.queries_timed_out;
    migrated += r.fragments_migrated;
    aborted_migrations += r.migration_pages_discarded > 0 ? 1 : 0;
  }
  EXPECT_GT(crashes, 0);
  EXPECT_GT(partitions, 0);
  EXPECT_GT(retries, 0);
  EXPECT_GT(timeouts, 0);
  EXPECT_GT(migrated, 0);
  EXPECT_GT(aborted_migrations, 0) << "no migration was aborted by a crash";
}

}  // namespace
}  // namespace pdblb
