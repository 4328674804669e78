// Copyright 2026 the pdblb authors. MIT license.
//
// Regression tests for Scheduler::Cancel: destroying a suspended frame must
// remove its pending calendar/ring entries (no ghost dispatch) and unhook it
// from whatever primitive it is parked in — Delay, Resource (both queued and
// granted-but-pending), Channel, TaskGroup, LockManager and the
// buffer manager's memory queue.  Each test parks a victim, cancels it
// mid-wait, and checks that (a) the victim never runs, (b) waiters behind it
// are served normally, and (c) no server/lock/reservation is leaked.
// A composite scenario with cancellations must replay bit-identical (same
// event trace bytes, same event count) across reruns.  Finally, structured
// teardown: ~Scheduler destroys suspended detached frames (locals'
// destructors run; nothing leaks — the ASan CI job keeps that honest without
// suppressions).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bufmgr/buffer_manager.h"
#include "common/config.h"
#include "engine/cluster.h"
#include "expect_quiescent.h"
#include "iosim/disk.h"
#include "lockmgr/lock_manager.h"
#include "run_at.h"
#include "simkern/channel.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"
#include "simkern/task_group.h"
#include "simkern/tracer.h"

namespace pdblb {
namespace {

using sim::Channel;
using sim::Resource;
using sim::RunAt;
using sim::Scheduler;
using sim::Task;
using sim::TaskGroup;
using sim::Tracer;

Task<> FlagAfterDelay(Scheduler& sched, SimTime delay, bool* ran) {
  co_await sched.Delay(delay);
  *ran = true;
}

TEST(CancelTest, CancelRemovesPendingDelay) {
  Scheduler sched;
  bool ran = false;
  uint64_t id = sched.SpawnWithId(FlagAfterDelay(sched, 10.0, &ran));
  EXPECT_TRUE(sched.Alive(id));
  RunAt(sched, 5.0, [&] {
    EXPECT_TRUE(sched.Cancel(id));
    EXPECT_FALSE(sched.Alive(id));
    EXPECT_FALSE(sched.Cancel(id)) << "stale ids must no-op";
  });
  sched.Run();
  EXPECT_FALSE(ran) << "cancelled frame was ghost-dispatched";
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(CancelTest, CancelIdOfCompletedFrameIsStale) {
  Scheduler sched;
  bool ran = false;
  uint64_t id = sched.SpawnWithId(FlagAfterDelay(sched, 1.0, &ran));
  sched.Run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sched.Alive(id));
  EXPECT_FALSE(sched.Cancel(id));
}

Task<> UseAndFlag(Resource& res, SimTime hold, bool* ran) {
  co_await res.Use(hold);
  *ran = true;
}

Task<> AcquireAndFlag(Scheduler& sched, Resource& res, SimTime hold,
                      bool* ran) {
  co_await res.Acquire();
  co_await sched.Delay(hold);
  res.Release();
  *ran = true;
}

// Victim parked in the resource's waiter queue: the cancel must erase its
// queue entry so the grant chain skips straight to the waiter behind it.
TEST(CancelTest, CancelWaiterQueuedInResourceAcquire) {
  Scheduler sched;
  Resource res(sched, /*servers=*/1, "cpu");
  bool holder = false, victim = false, behind = false;
  sched.Spawn(AcquireAndFlag(sched, res, 10.0, &holder));
  uint64_t victim_id =
      sched.SpawnWithId(AcquireAndFlag(sched, res, 1.0, &victim));
  sched.Spawn(AcquireAndFlag(sched, res, 1.0, &behind));
  RunAt(sched, 5.0, [&] { EXPECT_TRUE(sched.Cancel(victim_id)); });
  sched.Run();
  EXPECT_TRUE(holder);
  EXPECT_FALSE(victim);
  EXPECT_TRUE(behind) << "waiter behind the cancelled one was never granted";
  EXPECT_EQ(res.completed(), 2u);
}

// Victim cancelled in the window between Release() granting it a server and
// its end-of-service resume: CancelWaiter must scrub the resume and hand the
// server back.  The cancel is scheduled after the holder's resume@10, so at
// t=10 it runs once the holder's release has granted the victim.  Handing
// the server back is a release, so it counts as a completion.
TEST(CancelTest, CancelResourceWaiterBetweenGrantAndResume) {
  Scheduler sched;
  Resource res(sched, /*servers=*/1, "cpu");
  bool holder = false, victim = false, behind = false;
  sched.Spawn(UseAndFlag(res, 10.0, &holder));  // resume@10 inserted first
  uint64_t victim_id = sched.SpawnWithId(UseAndFlag(res, 1.0, &victim));
  sched.Spawn(UseAndFlag(res, 1.0, &behind));
  RunAt(sched, 10.0, [&] {
    EXPECT_EQ(res.queue_length(), 1u) << "victim was not granted yet";
    EXPECT_TRUE(sched.Cancel(victim_id));
  });
  sched.Run();
  EXPECT_TRUE(holder);
  EXPECT_FALSE(victim);
  EXPECT_TRUE(behind) << "server leaked by cancelling a granted waiter";
  EXPECT_EQ(res.completed(), 3u);
}

// Victim cancelled at the exact timestamp the holder releases the server.
// The cancel is scheduled first, so it runs ahead of the holder's
// end-of-service resume in same-time FIFO order: the victim is still queued
// (not yet granted, despite the test's name), and the release must skip it.
// CancelResourceWaiterBetweenGrantAndResume covers the granted window.
TEST(CancelTest, CancelGrantedButPendingResourceWaiter) {
  Scheduler sched;
  Resource res(sched, /*servers=*/1, "cpu");
  bool holder = false, victim = false, behind = false;
  uint64_t victim_id = 0;
  RunAt(sched, 10.0, [&] { sched.Cancel(victim_id); });
  sched.Spawn(UseAndFlag(res, 10.0, &holder));
  victim_id = sched.SpawnWithId(UseAndFlag(res, 1.0, &victim));
  sched.Spawn(UseAndFlag(res, 1.0, &behind));
  sched.Run();
  EXPECT_TRUE(holder);
  EXPECT_FALSE(victim);
  EXPECT_TRUE(behind) << "waiter behind the cancelled one was never granted";
  EXPECT_EQ(res.completed(), 2u);
}

Task<> ReceiveAndFlag(Channel<int>& ch, int* got, bool* closed) {
  while (auto v = co_await ch.Receive()) {
    *got = *v;
  }
  *closed = true;
}

TEST(CancelTest, CancelConsumerParkedInChannelReceive) {
  Scheduler sched;
  Channel<int> ch(sched);
  int victim_got = 0, other_got = 0;
  bool victim_closed = false, other_closed = false;
  uint64_t victim_id =
      sched.SpawnWithId(ReceiveAndFlag(ch, &victim_got, &victim_closed));
  sched.Spawn(ReceiveAndFlag(ch, &other_got, &other_closed));
  RunAt(sched, 5.0, [&] { sched.Cancel(victim_id); });
  RunAt(sched, 8.0, [&] {
    ch.Send(42);
    ch.Close();
  });
  sched.Run();
  EXPECT_EQ(victim_got, 0);
  EXPECT_FALSE(victim_closed);
  EXPECT_EQ(other_got, 42) << "value lost to a cancelled consumer";
  EXPECT_TRUE(other_closed);
}

Task<> WaitGroupAndFlag(TaskGroup& group, bool* ran) {
  co_await group.Wait();
  *ran = true;
}

TEST(CancelTest, CancelWaiterParkedInTaskGroupWait) {
  Scheduler sched;
  TaskGroup group(sched);
  bool member_done = false, victim = false, other = false;
  group.Spawn(FlagAfterDelay(sched, 10.0, &member_done));
  uint64_t victim_id = sched.SpawnWithId(WaitGroupAndFlag(group, &victim));
  sched.Spawn(WaitGroupAndFlag(group, &other));
  RunAt(sched, 5.0, [&] { sched.Cancel(victim_id); });
  sched.Run();
  EXPECT_TRUE(member_done);
  EXPECT_FALSE(victim);
  EXPECT_TRUE(other);
  EXPECT_EQ(group.active(), 0);
}

// Destroying a frame that owns a TaskGroup cancels the members still in
// flight, in spawn order, however wide the group; finished members and
// processes outside the group are left alone.
Task<> LogDestructionAfterDelay(Scheduler& sched, SimTime delay, int index,
                                std::vector<int>* destroyed) {
  struct Log {
    std::vector<int>* out;
    int index;
    ~Log() { out->push_back(index); }
  } log{destroyed, index};
  co_await sched.Delay(delay);
}

Task<> OwnWideGroup(Scheduler& sched, std::vector<int>* destroyed) {
  TaskGroup group(sched);
  for (int k = 0; k < 20; ++k) {
    // Even members finish at t = 1; odd ones are still running at t = 5.
    group.Spawn(LogDestructionAfterDelay(sched, k % 2 == 0 ? 1.0 : 100.0, k,
                                         destroyed));
  }
  co_await group.Wait();
}

TEST(CancelTest, DestroyingAGroupOwnerCancelsMembersInSpawnOrder) {
  Scheduler sched;
  std::vector<int> destroyed;
  bool bystander = false;
  uint64_t owner = sched.SpawnWithId(OwnWideGroup(sched, &destroyed));
  sched.Spawn(FlagAfterDelay(sched, 50.0, &bystander));
  RunAt(sched, 5.0, [&] { EXPECT_TRUE(sched.Cancel(owner)); });
  sched.Run();
  std::vector<int> want;
  for (int k = 0; k < 20; k += 2) want.push_back(k);
  for (int k = 1; k < 20; k += 2) want.push_back(k);
  EXPECT_EQ(destroyed, want);
  EXPECT_TRUE(bystander);
  EXPECT_EQ(sched.detached_in_flight(), 0u);
}

Task<> LockDelayRelease(Scheduler& sched, LockManager& lm, TxnId txn,
                        SimTime start, SimTime hold, bool* granted) {
  co_await sched.Delay(start);
  bool ok = co_await lm.Lock(txn, LockKey{1, 7}, LockMode::kExclusive);
  if (granted != nullptr) *granted = ok;
  if (ok) {
    co_await sched.Delay(hold);
    lm.ReleaseAll(txn);
  }
}

TEST(CancelTest, CancelWaiterParkedInLockManagerWait) {
  Scheduler sched;
  LockManager lm(sched);
  bool victim_granted = false, behind_granted = false;
  sched.Spawn(LockDelayRelease(sched, lm, 1, 0.0, 10.0, nullptr));
  uint64_t victim_id = sched.SpawnWithId(
      LockDelayRelease(sched, lm, 2, 1.0, 1.0, &victim_granted));
  sched.Spawn(LockDelayRelease(sched, lm, 3, 2.0, 1.0, &behind_granted));
  RunAt(sched, 5.0, [&] { sched.Cancel(victim_id); });
  sched.Run();
  EXPECT_FALSE(victim_granted) << "cancelled lock waiter was granted";
  EXPECT_TRUE(behind_granted)
      << "lock never reached the waiter behind the cancelled one";
  EXPECT_FALSE(lm.HoldsAnyLock(2));
  EXPECT_FALSE(lm.HoldsAnyLock(3));
}

struct BufFixture {
  sim::Scheduler sched;
  sim::Resource cpu{sched, 1, "cpu"};
  CpuCosts costs;
  DiskConfig disk_config;
  BufferConfig buf_config;
  std::unique_ptr<DiskArray> disks;
  std::unique_ptr<BufferManager> buffer;

  explicit BufFixture(int pages) {
    buf_config.buffer_pages = pages;
    disks = std::make_unique<DiskArray>(sched, disk_config, costs, 20.0, cpu,
                                        "t");
    buffer =
        std::make_unique<BufferManager>(sched, buf_config, *disks, "buf");
  }
};

Task<> ReserveDelayRelease(Scheduler& sched, BufferManager& buf, int pages,
                           SimTime start, SimTime hold, bool* granted) {
  co_await sched.Delay(start);
  int got = co_await buf.ReserveWait(pages, pages);
  if (granted != nullptr) *granted = true;
  co_await sched.Delay(hold);
  buf.ReleaseReservation(got);
}

TEST(CancelTest, CancelWaiterParkedInBufferMemoryQueue) {
  BufFixture f(10);
  bool victim = false, behind = false;
  f.sched.Spawn(
      ReserveDelayRelease(f.sched, *f.buffer, 8, 0.0, 10.0, nullptr));
  uint64_t victim_id = f.sched.SpawnWithId(
      ReserveDelayRelease(f.sched, *f.buffer, 5, 1.0, 1.0, &victim));
  f.sched.Spawn(
      ReserveDelayRelease(f.sched, *f.buffer, 4, 2.0, 1.0, &behind));
  RunAt(f.sched, 5.0, [&] { f.sched.Cancel(victim_id); });
  f.sched.Run();
  EXPECT_FALSE(victim);
  EXPECT_TRUE(behind)
      << "memory queue never served the waiter behind the cancelled one";
  EXPECT_EQ(f.buffer->reserved(), 0) << "reservation leaked";
}

// Composite scenario exercising every cancellation path above.  Replaying
// it must produce the identical event stream: same trace bytes, same event
// count.  This is the kernel-level half of the determinism contract that
// lets fault injection stay bit-identical across --jobs and reruns.
struct ScenarioResult {
  uint64_t events = 0;
  std::string trace;
};

ScenarioResult RunCancellationScenario() {
  Scheduler sched;
  Tracer tracer(/*capacity=*/1 << 14);
  sched.AttachTracer(&tracer);

  Resource res(sched, 1, "cpu");
  Channel<int> ch(sched);
  TaskGroup group(sched);
  bool sink_bool = false;
  int sink_int = 0;

  sched.Spawn(UseAndFlag(res, 10.0, &sink_bool));
  uint64_t res_victim = sched.SpawnWithId(UseAndFlag(res, 1.0, &sink_bool));
  sched.Spawn(UseAndFlag(res, 1.0, &sink_bool));
  uint64_t delay_victim =
      sched.SpawnWithId(FlagAfterDelay(sched, 50.0, &sink_bool));
  uint64_t ch_victim =
      sched.SpawnWithId(ReceiveAndFlag(ch, &sink_int, &sink_bool));
  sched.Spawn(ReceiveAndFlag(ch, &sink_int, &sink_bool));
  // The group's waiters are released by a member ending at 8.0 after the
  // other member was cancelled.
  uint64_t member_victim =
      group.Spawn(FlagAfterDelay(sched, 50.0, &sink_bool));
  group.Spawn(FlagAfterDelay(sched, 8.0, &sink_bool));
  uint64_t group_victim =
      sched.SpawnWithId(WaitGroupAndFlag(group, &sink_bool));
  sched.Spawn(WaitGroupAndFlag(group, &sink_bool));

  RunAt(sched, 5.0, [&] {
    sched.Cancel(res_victim);
    sched.Cancel(delay_victim);
    sched.Cancel(ch_victim);
    sched.Cancel(group_victim);
    sched.Cancel(member_victim);
  });
  RunAt(sched, 8.0, [&] {
    ch.Send(7);
    ch.Close();
  });
  sched.Run();
  return ScenarioResult{sched.events_processed(), tracer.ToCsv()};
}

TEST(CancelTest, CancellationScenarioReplaysBitIdentical) {
  ScenarioResult a = RunCancellationScenario();
  ScenarioResult b = RunCancellationScenario();
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.trace, b.trace) << "cancellation perturbed the event trace";
  EXPECT_NE(a.trace, Tracer::kCsvHeader) << "scenario recorded no events";
}

// Composed-fault unwind regression: disk retry chains, a partition and a PE
// crash all land inside the same few hundred milliseconds, so attempts that
// are stalled in injected disk retries get cancelled by the partition while
// the crash tears down whatever retried onto the failed PE.  Each RAII guard
// (admission, locks, buffer reservation) must release exactly once — a
// double release would corrupt the admission slot count below, a leak would
// trip the post-run conservation checks and leak detection.
TEST(CancelTest, ComposedFaultsUnwindGuardsExactlyOnce) {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 6000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.5;
  cfg.cc_scheme = CcScheme::kTwoPhaseLocking;  // TxnLocksGuard in play too
  cfg.faults.io_error_rate = 0.2;              // long injected retry chains
  cfg.faults.io_retry_penalty_ms = 20.0;
  cfg.faults.events = {{3000.0, FaultKind::kPartition, 0, 3},
                       {3050.0, FaultKind::kCrash, 3},
                       {3500.0, FaultKind::kRecover, 3},
                       {3600.0, FaultKind::kHeal, 0, 3}};
  cfg.faults.retry.max_attempts = 5;
  cfg.faults.retry.initial_backoff_ms = 100.0;

  auto run = [&] {
    Cluster cluster(cfg);
    MetricsReport r = cluster.Run();
    // A leaked or double-released admission slot shows as a busy one.
    ExpectQuiescent(cluster);
    return r;
  };
  MetricsReport r1 = run();
  EXPECT_GT(r1.queries_retried, 0) << "the composed faults cancelled nothing";
  EXPECT_GT(r1.io_errors, 0);
  EXPECT_EQ(r1.link_partitions, 1);
  EXPECT_EQ(r1.pe_crashes, 1);
  MetricsReport r2 = run();
  EXPECT_EQ(r1.kernel_events, r2.kernel_events)
      << "composed-fault unwind is not deterministic";
  EXPECT_EQ(r1.queries_retried, r2.queries_retried);
}

// --- structured cancellation ----------------------------------------------

struct DtorProbe {
  int* counter;
  explicit DtorProbe(int* c) : counter(c) {}
  DtorProbe(const DtorProbe&) = delete;
  DtorProbe& operator=(const DtorProbe&) = delete;
  ~DtorProbe() { ++*counter; }
};

Task<> BlockOnChannel(Channel<int>& ch, int* destroyed) {
  DtorProbe probe(destroyed);
  auto v = co_await ch.Receive();  // never satisfied in these tests
  (void)v;
}

Task<> BlockOnResource(Resource& res, int* destroyed) {
  DtorProbe probe(destroyed);
  co_await res.Acquire();
  res.Release();
}

Task<> ParentOfBlockedChild(Channel<int>& ch, int* destroyed) {
  DtorProbe probe(destroyed);
  co_await BlockOnChannel(ch, destroyed);  // owned child, not registered
}

Task<> UseLoop(Scheduler& sched, Resource& res, SimTime hold, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await res.Use(hold);
  (void)sched;
}

TEST(StructuredCancellationTest, TeardownDestroysSuspendedFrames) {
  int destroyed = 0;
  {
    Scheduler sched;
    Channel<int> ch(sched);
    Resource res(sched, 1, "cpu");
    sched.Spawn(BlockOnChannel(ch, &destroyed));
    sched.Spawn(UseLoop(sched, res, 1e9, 1));  // holds the only server
    sched.Spawn(BlockOnResource(res, &destroyed));
    sched.RunUntil(1.0);
    EXPECT_EQ(sched.detached_in_flight(), 3u);
    EXPECT_EQ(destroyed, 0);
  }  // ch/res die first (reverse declaration), then ~Scheduler the frames
  EXPECT_EQ(destroyed, 2);
}

TEST(StructuredCancellationTest, DestroyingAParentDestroysItsOwnedChild) {
  int destroyed = 0;
  {
    Scheduler sched;
    Channel<int> ch(sched);
    sched.Spawn(ParentOfBlockedChild(ch, &destroyed));
    sched.RunUntil(1.0);
    // Only the detached root registers; the blocked child is owned by (and
    // destroyed through) the parent's frame.
    EXPECT_EQ(sched.detached_in_flight(), 1u);
  }
  EXPECT_EQ(destroyed, 2) << "parent and child frame locals must be destroyed";
}

TEST(StructuredCancellationTest, CompletedFramesUnregisterThemselves) {
  Scheduler sched;
  Resource res(sched, 4, "cpu");
  for (int i = 0; i < 16; ++i) sched.Spawn(UseLoop(sched, res, 0.5, 10));
  EXPECT_EQ(sched.detached_in_flight(), 16u);
  sched.Run();
  EXPECT_EQ(sched.detached_in_flight(), 0u);
}

}  // namespace
}  // namespace pdblb
