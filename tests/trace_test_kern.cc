// Copyright 2026 the pdblb authors. MIT license.
//
// Golden-trace regression tests for the kernel event-tracing subsystem:
//  * hand-checked expected traces for two known scenarios (a contended
//    Resource, a channel ping-pong) pin the dispatch behaviour of the
//    kernel — any reordering of the calendar/ring/hand-off merge shows up
//    here as a changed trace, not just as a changed end-state statistic;
//  * a fixed-seed cluster run must produce a bit-identical trace across
//    reruns and across --jobs=1 vs --jobs=2 sweep executions;
//  * TraceRing wraparound and the Tracer's attribution fold.
//
// (tests/trace_test.cc covers the *workload* trace replay — unrelated.)

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "engine/cluster.h"
#include "runner/sweep.h"
#include "simkern/channel.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"
#include "simkern/trace_ring.h"
#include "simkern/tracer.h"

namespace pdblb::sim {
namespace {

// Compact readable form of one record, for golden comparisons:
// "<at>/<kind>/<subsystem>/<origin>".
std::string Fmt(const TraceRecord& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f/%s/%s/%u", r.at,
                TraceEventKindName(r.kind),
                TraceSubsystemName(r.tag >> TraceTag::kOriginBits),
                static_cast<unsigned>(r.tag & TraceTag::kOriginMask));
  return buf;
}

std::vector<std::string> Records(const Tracer& tracer) {
  std::vector<std::string> out;
  for (size_t i = 0; i < tracer.ring().size(); ++i) {
    out.push_back(Fmt(tracer.ring().At(i)));
  }
  return out;
}

Task<> UseOnce(Resource& res, SimTime service) { co_await res.Use(service); }

TEST(TraceGoldenTest, ContendedResourceMatchesHandCheckedTrace) {
  Scheduler sched;
  Tracer tracer(64);
  sched.AttachTracer(&tracer);
  Resource res(sched, /*servers=*/1, "cpu",
               TraceTag(TraceSubsystem::kCpu, /*origin=*/7));
  sched.Spawn(UseOnce(res, 5.0));
  sched.Spawn(UseOnce(res, 5.0));
  sched.Run();

  // Hand-checked: both spawns start through the same-time ring at t=0
  // (kernel); the first Use grants immediately and schedules its
  // end-of-service resume at t=5, the second queues.  The t=5 dispatch
  // (calendar, cpu) releases and grants the waiter inline, scheduling its
  // end-of-service at t=10 — one calendar event per contended acquisition.
  EXPECT_EQ(Records(tracer),
            (std::vector<std::string>{
                "0.000/ring/kernel/0",
                "0.000/ring/kernel/0",
                "5.000/calendar/cpu/7",
                "10.000/calendar/cpu/7",
            }));

  const auto& b = tracer.breakdown();
  EXPECT_EQ(b[static_cast<size_t>(TraceSubsystem::kKernel)].events, 2u);
  EXPECT_DOUBLE_EQ(
      b[static_cast<size_t>(TraceSubsystem::kKernel)].sim_time_ms, 0.0);
  EXPECT_EQ(b[static_cast<size_t>(TraceSubsystem::kCpu)].events, 2u);
  // t=0 -> 5 and t=5 -> 10: all 10 ms of this run are cpu time.
  EXPECT_DOUBLE_EQ(b[static_cast<size_t>(TraceSubsystem::kCpu)].sim_time_ms,
                   10.0);
}

Task<> PingPongProducer(Scheduler& sched, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sched.Delay(1.0);
    ch.Send(i);
  }
  ch.Close();
}

Task<> PingPongConsumer(Channel<int>& ch, int* received) {
  // NB: `while (co_await ch.Receive())` (bare co_await in the condition)
  // is silently miscompiled by the CI g++ — the coroutine never starts.
  // Bind the optional, as every other consumer in the test suite does.
  while (auto v = co_await ch.Receive()) ++*received;
}

TEST(TraceGoldenTest, ChannelPingPongMatchesHandCheckedTrace) {
  Scheduler sched;
  Tracer tracer(64);
  sched.AttachTracer(&tracer);
  Channel<int> ch(sched, TraceTag(TraceSubsystem::kChannel, /*origin=*/3));
  int received = 0;
  sched.Spawn(PingPongConsumer(ch, &received));
  sched.Spawn(PingPongProducer(sched, ch, 2));
  sched.Run();
  EXPECT_EQ(received, 2);

  // Hand-checked: consumer and producer start at t=0 (ring).  At t=1 and
  // t=2 the producer's delay fires (calendar, kernel), each Send wakes the
  // blocked consumer through the hand-off lane as soon as the producer
  // suspends — no calendar event for the wake-up.  Lane resumes record
  // statically as channel/0 (channels are the lane's only client; see
  // Scheduler::HandOff); the per-channel origin appears on calendar wakes
  // such as Close broadcasts.
  EXPECT_EQ(Records(tracer),
            (std::vector<std::string>{
                "0.000/ring/kernel/0",
                "0.000/ring/kernel/0",
                "1.000/calendar/kernel/0",
                "1.000/handoff/channel/0",
                "2.000/calendar/kernel/0",
                "2.000/handoff/channel/0",
            }));

  const auto& b = tracer.breakdown();
  EXPECT_EQ(b[static_cast<size_t>(TraceSubsystem::kChannel)].events, 2u);
  EXPECT_DOUBLE_EQ(
      b[static_cast<size_t>(TraceSubsystem::kChannel)].sim_time_ms, 0.0);
  EXPECT_EQ(b[static_cast<size_t>(TraceSubsystem::kKernel)].events, 4u);
  EXPECT_DOUBLE_EQ(
      b[static_cast<size_t>(TraceSubsystem::kKernel)].sim_time_ms, 2.0);
}

TEST(TraceRingTest, WrapAroundKeepsMostRecentRecords) {
  TraceRing ring(64);  // minimum capacity
  EXPECT_EQ(ring.capacity(), 64u);
  for (int i = 0; i < 200; ++i) {
    ring.Push(TraceRecord{static_cast<SimTime>(i),
                          static_cast<uint32_t>(i), 0, 0});
  }
  EXPECT_EQ(ring.total(), 200u);
  EXPECT_EQ(ring.size(), 64u);
  EXPECT_EQ(ring.dropped(), 136u);
  // Retained tail: records 136..199, oldest first.
  EXPECT_DOUBLE_EQ(ring.At(0).at, 136.0);
  EXPECT_DOUBLE_EQ(ring.At(63).at, 199.0);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
}

TEST(TracerTest, AttributionIsExactAcrossWrapAround) {
  // The fold accumulates online, so the breakdown covers all pushed
  // records even though the ring only retains the last 64.
  Tracer tracer(64);
  for (int i = 0; i < 500; ++i) {
    tracer.Record(static_cast<SimTime>(i), TraceEventKind::kCalendar,
                  TraceTag(TraceSubsystem::kDisk, 1).bits,
                  static_cast<uint64_t>(i));
  }
  EXPECT_EQ(tracer.ring().size(), 64u);
  const auto& b = tracer.breakdown();
  EXPECT_EQ(b[static_cast<size_t>(TraceSubsystem::kDisk)].events, 500u);
  EXPECT_DOUBLE_EQ(b[static_cast<size_t>(TraceSubsystem::kDisk)].sim_time_ms,
                   499.0);
}

TEST(TracerTest, CsvWriteFailureIsReported) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // Three records fit the stdio buffer: the write fails at the flush.
  Tracer tracer(64);
  for (int i = 0; i < 3; ++i) {
    tracer.Record(static_cast<SimTime>(i), TraceEventKind::kCalendar,
                  TraceTag(TraceSubsystem::kCpu).bits,
                  static_cast<uint64_t>(i));
  }
  EXPECT_EQ(tracer.WriteCsv("/dev/full").code(), StatusCode::kIoError);
}

SystemConfig SmallClusterConfig() {
  SystemConfig cfg;
  cfg.num_pes = 4;
  cfg.single_user_mode = true;
  cfg.single_user_queries = 3;
  cfg.trace.enabled = true;
  cfg.trace.capacity = 1 << 16;
  cfg.seed = 12345;
  return cfg;
}

TEST(TraceGoldenTest, FixedSeedClusterTraceIsBitIdenticalAcrossReruns) {
  auto run_once = [](std::string* csv, MetricsReport* report) {
    Cluster cluster(SmallClusterConfig());
    *report = cluster.Run();
    ASSERT_NE(cluster.tracer(), nullptr);
    *csv = cluster.tracer()->ToCsv();
  };
  std::string csv_a, csv_b;
  MetricsReport rep_a, rep_b;
  run_once(&csv_a, &rep_a);
  run_once(&csv_b, &rep_b);
  ASSERT_GT(csv_a.size(), 1000u) << "trace suspiciously small";
  EXPECT_EQ(csv_a, csv_b) << "event trace must be bit-identical per seed";

  // The MetricsReport attribution is the fold of that trace and must be
  // populated, deterministic, and consistent with the kernel counters.
  EXPECT_TRUE(rep_a.trace_enabled);
  uint64_t events = 0;
  for (size_t s = 0; s < kNumTraceSubsystems; ++s) {
    EXPECT_EQ(rep_a.trace_subsystem_events[s], rep_b.trace_subsystem_events[s]);
    EXPECT_DOUBLE_EQ(rep_a.trace_subsystem_time_ms[s],
                     rep_b.trace_subsystem_time_ms[s]);
    events += rep_a.trace_subsystem_events[s];
  }
  EXPECT_EQ(events, rep_a.kernel_events + rep_a.kernel_handoffs);
  EXPECT_GT(rep_a.trace_subsystem_events[
                static_cast<size_t>(TraceSubsystem::kCpu)], 0u);
  EXPECT_GT(rep_a.trace_subsystem_events[
                static_cast<size_t>(TraceSubsystem::kDisk)], 0u);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The per-point trace files must be byte-identical across --jobs values.
TEST(TraceGoldenTest, SweepTraceFilesAreIdenticalAcrossJobCounts) {
  runner::Sweep sweep;
  for (int pes : {2, 4}) {
    SystemConfig cfg = SmallClusterConfig();
    cfg.trace.enabled = false;  // the runner's trace_path turns it on
    cfg.num_pes = pes;
    sweep.Add({"trace_smoke/" + std::to_string(pes), "smoke",
               static_cast<double>(pes), std::to_string(pes), cfg});
  }
  std::string base = ::testing::TempDir() + "trace_jobs";

  runner::SweepOptions opts;
  opts.trace_path = base + "_j1";
  opts.jobs = 1;
  sweep.Run(opts);
  opts.trace_path = base + "_j2";
  opts.jobs = 2;
  sweep.Run(opts);

  for (int i = 0; i < 2; ++i) {
    std::string suffix = "." + std::to_string(i) + ".csv";
    std::string a = ReadFile(base + "_j1" + suffix);
    std::string b = ReadFile(base + "_j2" + suffix);
    ASSERT_GT(a.size(), 1000u) << "missing or empty trace file " << i;
    EXPECT_EQ(a, b) << "per-point trace must not depend on --jobs";
  }
}

}  // namespace
}  // namespace pdblb::sim
