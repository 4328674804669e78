// Copyright 2026 the pdblb authors. MIT license.
//
// Regression tests for Scheduler::Cancel: destroying a suspended frame must
// remove its pending calendar/ring entries (no ghost dispatch) and unhook it
// from whatever primitive it is parked in — Delay, Resource (both queued and
// granted-but-pending), a network message's legs, Channel, TaskGroup,
// LockManager and the buffer manager's memory queue.  Each test parks a
// victim, cancels it mid-wait, and checks that (a) the victim never runs,
// (b) waiters behind it are served normally, and (c) no
// server/lock/reservation is leaked.
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
#include "netsim/network.h"
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

// A network message parks at five places on its way: queued at a busy
// sender CPU, in send service, on the wire, queued at a busy receiver CPU
// and in receive service.  Cancelling it at any of them must deliver
// nothing, free whatever CPU server it held, take it off any queue, and
// leave the network timing the next transfer as if it had never been sent.
enum class MessagePlace {
  kQueuedAtSender,
  kSending,
  kOnWire,
  kQueuedAtReceiver,
  kReceiving,
};

struct MessageRig {
  // Three packets: 1.0 ms send CPU, 0.3 ms on the wire, 1.25 ms receive CPU
  // at the default costs and 20 MIPS.
  static constexpr int64_t kBytes = 3 * 8192;

  Scheduler sched;
  Resource cpu0{sched, /*servers=*/1, "cpu0"};
  Resource cpu1{sched, /*servers=*/1, "cpu1"};
  Network net{sched, NetworkConfig{}, CpuCosts{}, /*mips=*/20.0,
              {&cpu0, &cpu1}};

  // Sends one message from PE 0 to PE 1 at t = 100 and returns the time it
  // was delivered.
  SimTime ProbeDelivery() {
    SimTime delivered = -1.0;
    RunAt(sched, 100.0, [&] {
      sched.Spawn(net.Transfer(0, 1, kBytes, [&] { delivered = sched.Now(); }));
    });
    sched.Run();
    return delivered;
  }
};

// The victim awaits its message, so cancelling it destroys the message's
// frame as an owned child: undoing the pending step is left to the
// message's own awaiter, whichever leg it is on.
Task<> AwaitMessage(Network& net, bool* delivered) {
  co_await net.Transfer(0, 1, MessageRig::kBytes,
                        [delivered] { *delivered = true; });
}

class CancelMessageTest : public ::testing::TestWithParam<MessagePlace> {};

TEST_P(CancelMessageTest, CancelledMessageLeavesBothCpusAsFound) {
  const MessagePlace place = GetParam();
  MessageRig rig;
  bool sender_holder = false, receiver_holder = false, delivered = false;
  SimTime cancel_at = 0.0;
  switch (place) {
    case MessagePlace::kQueuedAtSender:
      rig.sched.Spawn(UseAndFlag(rig.cpu0, 2.0, &sender_holder));
      cancel_at = 1.0;
      break;
    case MessagePlace::kSending:
      cancel_at = 0.5;
      break;
    case MessagePlace::kOnWire:
      cancel_at = 1.15;
      break;
    case MessagePlace::kQueuedAtReceiver:
      rig.sched.Spawn(UseAndFlag(rig.cpu1, 5.0, &receiver_holder));
      cancel_at = 2.0;
      break;
    case MessagePlace::kReceiving:
      cancel_at = 1.9;
      break;
  }
  const uint64_t victim =
      rig.sched.SpawnWithId(AwaitMessage(rig.net, &delivered));
  RunAt(rig.sched, cancel_at, [&] {
    const bool queued = place == MessagePlace::kQueuedAtSender ||
                        place == MessagePlace::kQueuedAtReceiver;
    EXPECT_EQ(rig.cpu0.queue_length() + rig.cpu1.queue_length(),
              queued ? 1u : 0u);
    EXPECT_EQ(rig.cpu0.busy() + rig.cpu1.busy(),
              place == MessagePlace::kOnWire ? 0 : 1);
    EXPECT_TRUE(rig.sched.Cancel(victim));
    // Only the holders are left.
    EXPECT_EQ(rig.cpu0.busy(), place == MessagePlace::kQueuedAtSender ? 1 : 0);
    EXPECT_EQ(rig.cpu1.busy(),
              place == MessagePlace::kQueuedAtReceiver ? 1 : 0);
    EXPECT_EQ(rig.cpu0.queue_length(), 0u);
    EXPECT_EQ(rig.cpu1.queue_length(), 0u);
  });

  MessageRig untouched;
  EXPECT_EQ(rig.ProbeDelivery(), untouched.ProbeDelivery())
      << "the cancelled message changed the next transfer's timing";
  EXPECT_FALSE(delivered);
  EXPECT_EQ(sender_holder, place == MessagePlace::kQueuedAtSender);
  EXPECT_EQ(receiver_holder, place == MessagePlace::kQueuedAtReceiver);
  for (const Resource* cpu : {&rig.cpu0, &rig.cpu1}) {
    EXPECT_EQ(cpu->busy(), 0);
    EXPECT_EQ(cpu->queue_length(), 0u);
  }
  EXPECT_EQ(rig.sched.detached_in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlaces, CancelMessageTest,
    ::testing::Values(MessagePlace::kQueuedAtSender, MessagePlace::kSending,
                      MessagePlace::kOnWire, MessagePlace::kQueuedAtReceiver,
                      MessagePlace::kReceiving),
    [](const ::testing::TestParamInfo<MessagePlace>& info) {
      switch (info.param) {
        case MessagePlace::kQueuedAtSender: return "QueuedAtSender";
        case MessagePlace::kSending: return "Sending";
        case MessagePlace::kOnWire: return "OnWire";
        case MessagePlace::kQueuedAtReceiver: return "QueuedAtReceiver";
        case MessagePlace::kReceiving: return "Receiving";
      }
      return "Unknown";
    });

Task<> ReceiveAndFlag(Channel<int>& ch, int* got, bool* closed) {
  while (auto v = co_await ch.Receive()) {
    *got = *v;
  }
  *closed = true;
}

// A channel has one consumer at a time: the victim parks and is cancelled
// at 5, and the consumer that takes over at 6 gets the value and the close.
TEST(CancelTest, CancelConsumerParkedInChannelReceive) {
  Scheduler sched;
  Channel<int> ch(sched);
  int victim_got = 0, other_got = 0;
  bool victim_closed = false, other_closed = false;
  uint64_t victim_id =
      sched.SpawnWithId(ReceiveAndFlag(ch, &victim_got, &victim_closed));
  RunAt(sched, 5.0, [&] { sched.Cancel(victim_id); });
  RunAt(sched, 6.0, [&] {
    sched.Spawn(ReceiveAndFlag(ch, &other_got, &other_closed));
  });
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

// The victim is woken by a Send (a hand-off) and cancelled in the same
// event, before it resumes: the wake is scrubbed, the value stays queued,
// and the next consumer gets it.
TEST(CancelTest, CancelChannelConsumerWokenButNotResumed) {
  Scheduler sched;
  Channel<int> ch(sched);
  int victim_got = 0, other_got = 0;
  bool victim_closed = false, other_closed = false;
  uint64_t victim_id =
      sched.SpawnWithId(ReceiveAndFlag(ch, &victim_got, &victim_closed));
  RunAt(sched, 5.0, [&] {
    ch.Send(42);
    sched.Cancel(victim_id);
    EXPECT_EQ(ch.size(), 1u);
    sched.Spawn(ReceiveAndFlag(ch, &other_got, &other_closed));
    ch.Close();
  });
  sched.Run();
  EXPECT_EQ(victim_got, 0);
  EXPECT_FALSE(victim_closed);
  EXPECT_EQ(other_got, 42) << "value lost to a cancelled consumer";
  EXPECT_TRUE(other_closed);
  EXPECT_EQ(sched.pending_events(), 0u);
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
  // One consumer per channel: the victim's channel keeps its value, the
  // survivor's delivers it.
  Channel<int> ch(sched);
  Channel<int> survivor(sched);
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
  sched.Spawn(ReceiveAndFlag(survivor, &sink_int, &sink_bool));
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
    for (Channel<int>* c : {&ch, &survivor}) {
      c->Send(7);
      c->Close();
    }
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
