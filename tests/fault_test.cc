// Copyright 2026 the pdblb authors. MIT license.
//
// Fault-injection integration tests: scripted PE crash/recovery on a small
// cluster, retry/fail-fast accounting, per-query timeouts under admission
// saturation, and the determinism guarantee (identical reports across
// reruns with faults enabled).  The whole binary
// runs under leak detection, so every test doubles as a zero-leaked-frames
// check for the cancellation paths it exercises.

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/config.h"
#include "engine/cluster.h"
#include "expect_identical_reports.h"

namespace pdblb {
namespace {

SystemConfig FaultyConfig() {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 8000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.4;
  return cfg;
}

TEST(FaultTest, ScriptedCrashAndRecoveryPopulatesCounters) {
  SystemConfig cfg = FaultyConfig();
  cfg.faults.events = {{3000.0, FaultKind::kCrash, 2},
                       {5000.0, FaultKind::kRecover, 2}};
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_EQ(r.pe_crashes, 1);
  EXPECT_EQ(r.pe_recoveries, 1);
  EXPECT_GT(r.joins_completed, 0);
  // Under Shared Nothing every join touches every PE, so arrivals during
  // the 2 s outage retry (and, with the tight default backoff budget of
  // ~70 ms, mostly exhaust their attempts and fail).
  EXPECT_GT(r.queries_retried, 0);
  EXPECT_GT(r.queries_failed + r.queries_degraded, 0);
  EXPECT_EQ(r.queries_timed_out, 0) << "no deadlines were configured";
}

TEST(FaultTest, GenerousRetryBudgetRidesOutTheOutage) {
  SystemConfig cfg = FaultyConfig();
  cfg.faults.events = {{3000.0, FaultKind::kCrash, 2},
                       {4000.0, FaultKind::kRecover, 2}};
  // Backoff span 100+200+400+800+1000+1000 ms > the 1 s outage: queries
  // hit by the crash survive to recovery and complete degraded.
  cfg.faults.retry.max_attempts = 7;
  cfg.faults.retry.initial_backoff_ms = 100.0;
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_EQ(r.pe_crashes, 1);
  EXPECT_EQ(r.pe_recoveries, 1);
  EXPECT_GT(r.queries_degraded, 0)
      << "no query completed after retrying across the outage";
}

TEST(FaultTest, CrashWithoutRecoveryFailsQueriesFast) {
  SystemConfig cfg = FaultyConfig();
  cfg.faults.events = {{3000.0, FaultKind::kCrash, 1}};
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_EQ(r.pe_crashes, 1);
  EXPECT_EQ(r.pe_recoveries, 0);
  // The PE never comes back: every arrival after the crash fails fast at
  // placement, retries its budget and is counted as failed.  The run still
  // terminates cleanly (no hung supervisors, no leaked frames).
  EXPECT_GT(r.queries_failed, 0);
  EXPECT_GT(r.joins_completed, 0) << "pre-crash joins should have finished";
}

TEST(FaultTest, ScriptedFaultRunsAreDeterministic) {
  SystemConfig cfg = FaultyConfig();
  cfg.faults.events = {{3000.0, FaultKind::kCrash, 2},
                       {5000.0, FaultKind::kRecover, 2}};
  MetricsReport r1 = Cluster(cfg).Run();
  MetricsReport r2 = Cluster(cfg).Run();
  EXPECT_DOUBLE_EQ(r1.join_rt_ms, r2.join_rt_ms);
  EXPECT_EQ(r1.joins_completed, r2.joins_completed);
  EXPECT_EQ(r1.queries_retried, r2.queries_retried);
  EXPECT_EQ(r1.queries_failed, r2.queries_failed);
  EXPECT_EQ(r1.queries_degraded, r2.queries_degraded);
  EXPECT_EQ(r1.kernel_events, r2.kernel_events);
}

TEST(FaultTest, RandomCrashModelIsDeterministicAndRecovers) {
  SystemConfig cfg = FaultyConfig();
  cfg.faults.crash_rate_per_pe_per_min = 2.0;
  cfg.faults.mttr_ms = 1000.0;
  MetricsReport r1 = Cluster(cfg).Run();
  MetricsReport r2 = Cluster(cfg).Run();
  // 8 PEs * 2 crashes/PE/min over 9 s ≈ 2.4 expected crashes.
  EXPECT_GT(r1.pe_crashes, 0);
  EXPECT_GE(r1.pe_crashes, r1.pe_recoveries);
  EXPECT_EQ(r1.pe_crashes, r2.pe_crashes);
  EXPECT_EQ(r1.pe_recoveries, r2.pe_recoveries);
  EXPECT_EQ(r1.kernel_events, r2.kernel_events);
}

// Satellite: timeout-under-overload stress.  A fifth of the queries carry a
// deadline well below the queueing delay at a saturated admission gate, so
// a deterministic subset times out; the counts must be identical across
// reruns.
SystemConfig OverloadedTimeoutConfig() {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 6000.0;
  // Offered load far above capacity at MPL 2: the admission queue grows
  // and per-query sojourn times blow past the deadline.
  cfg.join_query.arrival_rate_per_pe_qps = 1.0;
  cfg.multiprogramming_level = 2;
  cfg.faults.query_timeout_ms = 1500.0;
  cfg.faults.timeout_fraction = 0.2;
  return cfg;
}

TEST(FaultTest, TimeoutsUnderOverloadFireAndAreDeterministic) {
  SystemConfig cfg = OverloadedTimeoutConfig();
  MetricsReport r1 = Cluster(cfg).Run();
  EXPECT_GT(r1.queries_timed_out, 0) << "overload produced no timeouts";
  EXPECT_GT(r1.joins_completed, 0) << "deadline-free queries must complete";
  // Timeouts never retry, so the retry counters stay untouched.
  EXPECT_EQ(r1.queries_retried, 0);
  EXPECT_EQ(r1.queries_failed, 0);
  MetricsReport r2 = Cluster(cfg).Run();
  EXPECT_EQ(r1.queries_timed_out, r2.queries_timed_out);
  EXPECT_EQ(r1.joins_completed, r2.joins_completed);
  EXPECT_EQ(r1.kernel_events, r2.kernel_events);
}

TEST(FaultTest, FaultSpecParsingRoundTrips) {
  FaultConfig fc;
  Status st = ParseFaultSpec(
      "crash@3000:pe2;recover@5000:pe2;rate=0.5;mttr=1500;timeout=800;"
      "timeout_frac=0.25;retries=5",
      &fc);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(fc.events.size(), 2u);
  EXPECT_EQ(fc.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(fc.events[0].pe, 2);
  EXPECT_DOUBLE_EQ(fc.events[0].at_ms, 3000.0);
  EXPECT_EQ(fc.events[1].kind, FaultKind::kRecover);
  EXPECT_DOUBLE_EQ(fc.crash_rate_per_pe_per_min, 0.5);
  EXPECT_DOUBLE_EQ(fc.mttr_ms, 1500.0);
  EXPECT_DOUBLE_EQ(fc.query_timeout_ms, 800.0);
  EXPECT_DOUBLE_EQ(fc.timeout_fraction, 0.25);
  EXPECT_EQ(fc.retry.max_attempts, 5);
  EXPECT_TRUE(fc.Enabled());

  EXPECT_FALSE(ParseFaultSpec("crash@:pe1", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("bogus=1", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("crash@100:3", &fc).ok());
  // Every number must parse whole and be finite: no unit suffixes, no
  // truncated fractions, no NaN or infinities.
  EXPECT_FALSE(ParseFaultSpec("timeout=5000ms", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("retries=2.9", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("rate=0.5x", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("crash@2000x:pe3", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("timeout=nan", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("crash@nan:pe1", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("rate=inf;mttr=1500", &fc).ok());
  EXPECT_FALSE(ParseFaultSpec("crash@2000:pe 3", &fc).ok());
}

// A fault on a PE the config does not have is rejected when the Cluster is
// built, in every build type, instead of indexing past the PE array.
TEST(FaultTest, ClusterRejectsFaultOnMissingPe) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  ASSERT_TRUE(ParseFaultSpec("crash@2000:pe99", &cfg.faults).ok());
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

// Satellite: the gray-failure grammar terms round-trip into FaultConfig and
// malformed clauses fail eagerly with a rejection (not a silent skip).
TEST(FaultTest, GrayFailureSpecParsingRoundTrips) {
  FaultConfig fc;
  Status st = ParseFaultSpec(
      "slowdisk@2000:pe1:x3;slowdisk@4000:pe1:x1;partition@2500:pe0-pe3;"
      "heal@3800:pe0-pe3;slowlink@2000:pe4-pe5:x2.5;iorate=0.05",
      &fc);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(fc.events.size(), 5u);
  EXPECT_EQ(fc.events[0].kind, FaultKind::kSlowDisk);
  EXPECT_EQ(fc.events[0].pe, 1);
  EXPECT_DOUBLE_EQ(fc.events[0].at_ms, 2000.0);
  EXPECT_DOUBLE_EQ(fc.events[0].factor, 3.0);
  EXPECT_DOUBLE_EQ(fc.events[1].factor, 1.0) << "x1 restores normal speed";
  EXPECT_EQ(fc.events[2].kind, FaultKind::kPartition);
  EXPECT_EQ(fc.events[2].pe, 0);
  EXPECT_EQ(fc.events[2].pe2, 3);
  EXPECT_EQ(fc.events[3].kind, FaultKind::kHeal);
  EXPECT_EQ(fc.events[4].kind, FaultKind::kSlowLink);
  EXPECT_EQ(fc.events[4].pe, 4);
  EXPECT_EQ(fc.events[4].pe2, 5);
  EXPECT_DOUBLE_EQ(fc.events[4].factor, 2.5);
  EXPECT_DOUBLE_EQ(fc.io_error_rate, 0.05);
  EXPECT_TRUE(fc.DiskFaultsEnabled());

  FaultConfig sink;
  EXPECT_FALSE(ParseFaultSpec("slowdisk@2000:pe1", &sink).ok())
      << "slowdisk without a factor must be rejected";
  EXPECT_FALSE(ParseFaultSpec("slowdisk@2000:pe1:x0.5", &sink).ok())
      << "slowdisk models slow-downs only; a factor < 1 is a speed-up";
  EXPECT_FALSE(ParseFaultSpec("partition@2500:pe0", &sink).ok())
      << "partition needs two endpoints";
  EXPECT_FALSE(ParseFaultSpec("partition@2500:pe3-pe3", &sink).ok())
      << "endpoints must differ";
  EXPECT_FALSE(ParseFaultSpec("slowlink@2000:pe4-pe5", &sink).ok())
      << "slowlink without a factor must be rejected";
  EXPECT_FALSE(ParseFaultSpec("iorate=1.5", &sink).ok());
  EXPECT_FALSE(ParseFaultSpec("iorate=-0.1", &sink).ok());
  EXPECT_FALSE(ParseFaultSpec("meltdown@100:pe1", &sink).ok())
      << "unknown kinds must be rejected, not skipped";
  EXPECT_FALSE(ParseFaultSpec("slowdisk@2000:pe1:x2.5q", &sink).ok());
  EXPECT_FALSE(ParseFaultSpec("slowdisk@2000:pe1:xinf", &sink).ok());
}

// Satellite: duplicate scripted clauses — same kind, instant and target —
// used to be accepted with silent last-wins ordering; they must now fail
// eagerly like every other malformed spec.  Distinct kinds at the same
// (time, PE) stay legal: that is the spec-order bounce
// SameTimestampEventsApplyInSpecOrder pins.
TEST(FaultTest, DuplicateScriptedClausesAreRejected) {
  FaultConfig sink;
  EXPECT_FALSE(
      ParseFaultSpec("crash@3000:pe2;crash@3000:pe2", &sink).ok())
      << "verbatim repeat must be rejected";
  EXPECT_FALSE(
      ParseFaultSpec("slowdisk@2000:pe1:x3;slowdisk@2000:pe1:x5", &sink).ok())
      << "same event with a different factor is the silent last-wins case";
  EXPECT_FALSE(
      ParseFaultSpec("slowlink@2000:pe4-pe5:x2;slowlink@2000:pe4-pe5:x3",
                     &sink)
          .ok())
      << "link clauses dedupe on both endpoints";

  FaultConfig ok;
  EXPECT_TRUE(
      ParseFaultSpec("crash@3000:pe2;recover@3000:pe2", &ok).ok())
      << "distinct kinds at one (time, PE) are a legitimate bounce";
  FaultConfig ok2;
  EXPECT_TRUE(ParseFaultSpec("crash@3000:pe2;crash@3000:pe3", &ok2).ok())
      << "same instant, different PE";
  FaultConfig ok3;
  EXPECT_TRUE(ParseFaultSpec("crash@3000:pe2;crash@4000:pe2", &ok3).ok())
      << "same PE, different instant";
  FaultConfig ok4;
  EXPECT_TRUE(
      ParseFaultSpec("slowlink@2000:pe4-pe5:x2;slowlink@2000:pe4-pe6:x2",
                     &ok4)
          .ok())
      << "different far endpoint is a different link";
}

// Satellite: fault-event edge timing.  A crash scheduled at t=0 takes the PE
// down before the first arrival and the run still terminates cleanly.
TEST(FaultTest, CrashAtTimeZeroIsAppliedBeforeArrivals) {
  SystemConfig cfg = FaultyConfig();
  cfg.faults.events = {{0.0, FaultKind::kCrash, 2},
                       {4000.0, FaultKind::kRecover, 2}};
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_EQ(r.pe_crashes, 1);
  EXPECT_EQ(r.pe_recoveries, 1);
  EXPECT_GT(r.joins_completed, 0) << "post-recovery joins should complete";
}

// A recovery scheduled beyond the measurement horizon never lands in the
// report (Collect runs first), but the pending fault process must drain
// cleanly during the post-measurement shutdown instead of hanging the run.
TEST(FaultTest, RecoveryPastTheHorizonDrainsCleanly) {
  SystemConfig cfg = FaultyConfig();
  cfg.faults.events = {{3000.0, FaultKind::kCrash, 2},
                       {100000.0, FaultKind::kRecover, 2}};
  MetricsReport r = Cluster(cfg).Run();
  EXPECT_EQ(r.pe_crashes, 1);
  EXPECT_EQ(r.pe_recoveries, 0) << "recovery lies past the collected window";
  EXPECT_GT(r.queries_failed, 0) << "the PE stays down all measurement long";
}

// Back-to-back events at the same timestamp apply in spec order (spawned in
// spec order, calendar FIFO at equal timestamps): crash-then-recover leaves
// the PE up, recover-then-crash (recover of an alive PE no-ops) leaves it
// down.  This pins the documented tie-break in FaultInjector::ApplyAt.
TEST(FaultTest, SameTimestampEventsApplyInSpecOrder) {
  SystemConfig up = FaultyConfig();
  up.faults.events = {{3000.0, FaultKind::kCrash, 2},
                      {3000.0, FaultKind::kRecover, 2}};
  MetricsReport r_up = Cluster(up).Run();
  EXPECT_EQ(r_up.pe_crashes, 1);
  EXPECT_EQ(r_up.pe_recoveries, 1) << "recover must apply after the crash";
  EXPECT_EQ(r_up.queries_failed, 0) << "the outage had zero duration";

  SystemConfig down = FaultyConfig();
  down.faults.events = {{3000.0, FaultKind::kRecover, 2},
                        {3000.0, FaultKind::kCrash, 2}};
  MetricsReport r_down = Cluster(down).Run();
  EXPECT_EQ(r_down.pe_crashes, 1);
  EXPECT_EQ(r_down.pe_recoveries, 0)
      << "recover of an alive PE must no-op, then the crash applies";
  EXPECT_GT(r_down.queries_failed, 0) << "the PE stays down";
}

// Every query class runs supervised through a crash, a partition and query
// deadlines, under strict 2PL, so that cancellation cuts each class's
// lifecycle at every step: admission, locks, buffer reservations and the
// memory queue must all be returned at every PE, and no transaction the
// run issued may still hold a lock.
TEST(FaultTest, EveryQueryClassUnwindsCleanly) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 6000.0;
  cfg.cc_scheme = CcScheme::kTwoPhaseLocking;
  cfg.join_query.arrival_rate_per_pe_qps = 0.05;
  cfg.scan_query.enabled = true;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.1;
  cfg.update_query.enabled = true;
  cfg.update_query.arrival_rate_per_pe_qps = 0.2;
  cfg.multiway_join.enabled = true;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.1;
  cfg.oltp.enabled = true;
  cfg.oltp.tps_per_node = 20.0;
  ASSERT_TRUE(ParseFaultSpec("crash@1500:pe3;recover@3000:pe3;"
                             "partition@2000:pe1-pe4;heal@2600:pe1-pe4;"
                             "timeout=3000",
                             &cfg.faults)
                  .ok());
  cfg.faults.retry.max_attempts = 4;

  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  for (PeId pe = 0; pe < cfg.num_pes; ++pe) {
    EXPECT_EQ(cluster.pe(pe).admission().busy(), 0) << "pe " << pe;
    EXPECT_EQ(cluster.pe(pe).buffer().reserved(), 0) << "pe " << pe;
    EXPECT_EQ(cluster.pe(pe).buffer().memory_queue_length(), 0u)
        << "pe " << pe;
  }
  const TxnId issued = cluster.NextTxnId();
  for (TxnId txn = 1; txn < issued; ++txn) {
    for (PeId pe = 0; pe < cfg.num_pes; ++pe) {
      EXPECT_FALSE(cluster.pe(pe).locks().HoldsAnyLock(txn))
          << "txn " << txn << " at pe " << pe;
    }
  }
  EXPECT_GT(r.scans_completed, 0);
  EXPECT_GT(r.updates_completed, 0);
  EXPECT_GT(r.oltp_completed, 0);
  EXPECT_GT(r.multiway_completed, 0);
  EXPECT_GT(r.queries_retried, 0) << "the faults cancelled nothing";
  ExpectIdenticalReports(r, Cluster(cfg).Run());
}

}  // namespace
}  // namespace pdblb
