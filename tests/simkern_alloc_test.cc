// Copyright 2026 the pdblb authors. MIT license.
//
// Verifies the kernel's zero-allocation dispatch guarantee: once a
// simulation reaches steady state (calendar reserved, coroutine frames
// recycled), dispatching events performs no heap allocations at all.  This lives in its own test binary because it
// replaces the global operator new/delete to count heap traffic.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bufmgr/buffer_manager.h"
#include "common/config.h"
#include "iosim/disk.h"
#include "lockmgr/lock_manager.h"
#include "netsim/network.h"
#include "simkern/channel.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"
#include "simkern/task_group.h"
#include "simkern/tracer.h"

namespace {
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pdblb::sim {
namespace {

Task<> TimerLoop(Scheduler& sched, SimTime period, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await sched.Delay(period);
  }
}

Task<> ZeroDelayLoop(Scheduler& sched, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await sched.Delay(0.0);
  }
}

Task<> ShortLived(Scheduler& sched) { co_await sched.Delay(0.5); }

// Spawning a child per iteration churns coroutine frames; the frame arena
// must recycle them without touching the heap.
Task<> FrameChurnLoop(Scheduler& sched, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await ShortLived(sched);
  }
}

TEST(SchedulerAllocTest, SteadyStateDispatchAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/1024);

  constexpr int64_t kRounds = 200000;
  for (int i = 0; i < 16; ++i) {
    sched.Spawn(TimerLoop(sched, 1.0 + 0.013 * i, kRounds));
  }
  for (int i = 0; i < 4; ++i) {
    sched.Spawn(ZeroDelayLoop(sched, kRounds));
  }
  sched.Spawn(FrameChurnLoop(sched, kRounds));

  // Warm-up: grow the calendar and the frame arena to their steady-state
  // sizes.
  sched.RunUntil(500.0);
  uint64_t events_before = sched.events_processed();
  ASSERT_GT(events_before, 10000u);

  uint64_t allocations_before = g_allocations;
  sched.RunUntil(5000.0);
  uint64_t allocations_after = g_allocations;
  uint64_t dispatched = sched.events_processed() - events_before;

  EXPECT_GT(dispatched, 50000u);
  EXPECT_EQ(allocations_after - allocations_before, 0u)
      << "dispatching " << dispatched << " events allocated "
      << (allocations_after - allocations_before) << " times";
}

// --- blocking primitives ---------------------------------------------------
// The frameless Resource::Use awaiter and the ring-buffer waiter/value
// queues extend the zero-allocation guarantee from dispatch to *blocking*:
// once the rings have grown to the high-water mark of each queue, contended
// acquisitions, channel traffic and task-group fork/joins touch the heap
// exactly never.  (The old kernel allocated a coroutine frame per Use and
// paid std::deque chunk churn on every queue at chunk boundaries, forever.)

Task<> ContendedClient(Scheduler& sched, Resource& res, SimTime hold,
                       int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await res.Use(hold);
  }
  (void)sched;
}

TEST(SchedulerAllocTest, ContendedResourceUseAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/1024);
  Resource res(sched, /*servers=*/3, "cpu");
  // 48 clients against 3 servers: essentially every acquisition queues.
  for (int i = 0; i < 48; ++i) {
    sched.Spawn(ContendedClient(sched, res, 0.4 + 0.01 * i, 50000));
  }
  sched.RunUntil(500.0);  // warm-up: rings and frame arena reach steady state
  ASSERT_GT(res.max_queue_length(), 16u) << "shape is not actually contended";

  uint64_t allocations_before = g_allocations;
  uint64_t completed_before = res.completed();
  sched.RunUntil(5000.0);
  EXPECT_GT(res.completed() - completed_before, 20000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "contended Resource::Use must not allocate in steady state";
}

Task<> PingPongProducer(Scheduler& sched, Channel<int64_t>& ch, int burst,
                        int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await sched.Delay(1.0);
    // Bursts larger than the ring's inline capacity keep the value queue
    // at its grown (heap) capacity — the "at capacity" steady state.
    for (int k = 0; k < burst; ++k) ch.Send(i * burst + k);
  }
  ch.Close();
}

Task<> PingPongConsumer(Channel<int64_t>& ch, uint64_t* received) {
  while (auto v = co_await ch.Receive()) {
    ++*received;
  }
}

TEST(SchedulerAllocTest, ChannelSendRecvAtCapacityAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  Channel<int64_t> ch(sched);
  uint64_t received = 0;
  sched.Spawn(PingPongConsumer(ch, &received));
  sched.Spawn(PingPongProducer(sched, ch, /*burst=*/16, /*rounds=*/100000));
  sched.RunUntil(200.0);  // warm-up grows the value ring past inline capacity
  ASSERT_GT(received, 1000u);

  uint64_t allocations_before = g_allocations;
  uint64_t received_before = received;
  sched.RunUntil(20000.0);
  EXPECT_GT(received - received_before, 100000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "channel send/recv at capacity must not allocate in steady state";
}

// The same with a TaskGroup per round, 64 members wide (a 64-page striped
// read spawns 16 prefetch batches, a join's groups one member per PE), and
// every other round's group destroyed with its members in flight.  The
// group keeps no per-member storage: members are tagged in the scheduler's
// registry of in-flight processes, which recycles its slots.
Task<> GroupMember(Scheduler& sched, SimTime delay) {
  co_await sched.Delay(delay);
}

Task<> GroupRound(Scheduler& sched, int fanout) {
  TaskGroup group(sched);
  for (int f = 0; f < fanout; ++f) {
    group.Spawn(GroupMember(sched, 0.5 + 0.01 * f));
  }
  co_await group.Wait();
}

Task<> GroupFanOutLoop(Scheduler& sched, int fanout, int64_t rounds,
                       uint64_t* joins, uint64_t* cancelled) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await GroupRound(sched, fanout);
    ++*joins;
    const uint64_t victim = sched.SpawnWithId(GroupRound(sched, fanout));
    co_await sched.Delay(0.25);
    if (sched.Cancel(victim)) ++*cancelled;
  }
}

TEST(SchedulerAllocTest, TaskGroupFanOutAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  uint64_t joins = 0;
  uint64_t cancelled = 0;
  sched.Spawn(GroupFanOutLoop(sched, /*fanout=*/64, /*rounds=*/100000,
                              &joins, &cancelled));
  sched.RunUntil(100.0);  // warm-up
  ASSERT_GT(joins, 10u);

  uint64_t allocations_before = g_allocations;
  uint64_t joins_before = joins;
  uint64_t cancelled_before = cancelled;
  sched.RunUntil(10000.0);
  EXPECT_GT(joins - joins_before, 3000u);
  EXPECT_EQ(cancelled - cancelled_before, joins - joins_before);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "64-wide task-group fork/join and cancellation allocated";
}

// Frame shape: a group member is its own frame and nothing more.  A
// warm-up round sizes the calendar, the registry and the CPU wait queue;
// trimming the arena then sends every frame allocation to operator new, so
// the allocation count is the frame count.
TEST(SchedulerAllocTest, TaskGroupMemberIsOneFrame) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  TaskGroup group(sched);
  auto spawn_round = [&] {
    for (int f = 0; f < 64; ++f) group.Spawn(GroupMember(sched, 1.0));
    sched.RunUntil(sched.Now() + 0.5);  // every member suspended in Delay
  };
  spawn_round();
  sched.Run();  // warm-up
  TrimFrameArenaThreadCache();

  uint64_t allocations_before = g_allocations;
  spawn_round();
  EXPECT_EQ(group.active(), 64);
  EXPECT_EQ(g_allocations - allocations_before, 64u)
      << "a TaskGroup member must cost exactly its own frame";
  sched.Run();
  EXPECT_EQ(group.active(), 0);
}

// The same for a redistribution packet: a transfer spawned into a group
// with its delivery callback is the packet's only frame.
TEST(SchedulerAllocTest, NetworkTransferIsOneFrame) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  Resource sender(sched, /*servers=*/1, "cpu0");
  Resource receiver(sched, /*servers=*/1, "cpu1");
  Network net(sched, NetworkConfig{}, CpuCosts{}, /*mips=*/20.0,
              {&sender, &receiver});
  TaskGroup sends(sched);
  int64_t delivered = 0;
  auto spawn_round = [&] {
    for (int i = 0; i < 64; ++i) {
      sends.Spawn(net.Transfer(0, 1, 8192, [&delivered] { ++delivered; }));
    }
    sched.RunUntil(sched.Now() + 0.1);  // every transfer at the sender CPU
  };
  spawn_round();
  sched.Run();  // warm-up
  ASSERT_EQ(delivered, 64);
  TrimFrameArenaThreadCache();

  uint64_t allocations_before = g_allocations;
  spawn_round();
  EXPECT_EQ(sends.active(), 64);
  EXPECT_EQ(g_allocations - allocations_before, 64u)
      << "a packet in flight must cost exactly its transfer's frame";
  sched.Run();
  EXPECT_EQ(delivered, 128);
}

// Tracing must preserve the zero-allocation guarantee: the record ring is
// pre-allocated at Tracer construction and the per-dispatch Record() only
// writes into it (wrapping in place once full — the 4096-record ring here
// wraps thousands of times below).
TEST(SchedulerAllocTest, DispatchWithTracingEnabledAllocatesNothing) {
  Scheduler sched;
  Tracer tracer(/*capacity=*/4096);
  sched.AttachTracer(&tracer);
  sched.Reserve(/*events=*/1024);

  constexpr int64_t kRounds = 200000;
  for (int i = 0; i < 8; ++i) {
    sched.Spawn(TimerLoop(sched, 1.0 + 0.013 * i, kRounds));
  }
  for (int i = 0; i < 2; ++i) {
    sched.Spawn(ZeroDelayLoop(sched, kRounds));
  }
  Resource res(sched, /*servers=*/2, "cpu",
               TraceTag(TraceSubsystem::kCpu, 1));
  for (int i = 0; i < 8; ++i) {
    sched.Spawn(ContendedClient(sched, res, 0.4 + 0.01 * i, kRounds));
  }
  Channel<int64_t> ch(sched);
  uint64_t received = 0;
  sched.Spawn(PingPongConsumer(ch, &received));
  sched.Spawn(PingPongProducer(sched, ch, /*burst=*/16, /*rounds=*/kRounds));

  sched.RunUntil(500.0);  // warm-up
  uint64_t events_before = sched.events_processed();
  ASSERT_GT(events_before, 10000u);

  uint64_t allocations_before = g_allocations;
  sched.RunUntil(5000.0);
  uint64_t dispatched = sched.events_processed() - events_before;
  EXPECT_GT(dispatched, 50000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "dispatching " << dispatched
      << " events with tracing enabled must not allocate";

  EXPECT_GT(tracer.ring().total(), tracer.ring().capacity())
      << "shape did not exercise ring wrap-around";
  uint64_t recorded = 0;
  for (const TraceBreakdown& b : tracer.breakdown()) recorded += b.events;
  EXPECT_EQ(recorded, sched.events_processed() + sched.inline_resumes());
}

// Cancellation must be allocation-free in steady state: SpawnWithId feeds
// the recycled frame arena and the detached-frame registry's ring slots,
// Cancel scrubs calendar/ring entries in place (tombstones, no compaction)
// and destroying the victim unhooks it from the resource's waiter ring.
// After warm-up, a spawn/park/cancel cycle touches the heap exactly never.
Task<> CancelChurnLoop(Scheduler& sched, Resource& res, int64_t rounds,
                       uint64_t* cancelled) {
  for (int64_t i = 0; i < rounds; ++i) {
    // One victim parked in the calendar, one parked in the resource queue
    // (the resource's single server is held by a permanent holder).  The
    // timer victim's horizon is finite: a cancelled calendar entry is a
    // tombstone dropped when its timestamp drains, so victims parked at
    // "never" would pile tombstones up and grow the heap forever — bounded
    // pending-time keeps the tombstone population at a steady state.
    uint64_t timer_victim = sched.SpawnWithId(TimerLoop(sched, 50.0, 1));
    uint64_t queue_victim = sched.SpawnWithId(ContendedClient(
        sched, res, /*hold=*/1.0, /*rounds=*/1));
    co_await sched.Delay(0.5);
    if (sched.Cancel(timer_victim)) ++*cancelled;
    if (sched.Cancel(queue_victim)) ++*cancelled;
  }
}

TEST(SchedulerAllocTest, CancellationAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  Resource res(sched, /*servers=*/1, "cpu");
  sched.Spawn(ContendedClient(sched, res, /*hold=*/1e9, /*rounds=*/1));
  uint64_t cancelled = 0;
  constexpr int64_t kRounds = 100000;
  sched.Spawn(CancelChurnLoop(sched, res, kRounds, &cancelled));
  sched.RunUntil(100.0);  // warm-up: arena/registry/rings reach steady state
  ASSERT_GT(cancelled, 100u);

  uint64_t allocations_before = g_allocations;
  uint64_t cancelled_before = cancelled;
  sched.RunUntil(20000.0);
  EXPECT_GT(cancelled - cancelled_before, 10000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "cancelling " << (cancelled - cancelled_before)
      << " parked frames allocated "
      << (g_allocations - allocations_before) << " times";
}

// Ending a run allocates nothing either: CancelAll destroys every parked
// frame into the recycled arena, unhooks each one from its queue in place,
// and clears the calendar, ring and lane without giving back their storage.
// The shape parks processes in timers, a contended resource's queue and
// servers, a channel receive and task-group waits with members in flight.
TEST(SchedulerAllocTest, CancelAllAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/1024);
  Resource res(sched, /*servers=*/3, "cpu");
  Channel<int64_t> ch(sched);
  uint64_t received = 0;
  uint64_t joins = 0;
  uint64_t cancelled = 0;
  for (int i = 0; i < 48; ++i) {
    sched.Spawn(TimerLoop(sched, 1.0 + 0.013 * i, 1000000));
    sched.Spawn(ContendedClient(sched, res, 0.4 + 0.01 * i, 1000000));
    sched.Spawn(PingPongConsumer(ch, &received));
  }
  for (int i = 0; i < 8; ++i) {
    sched.Spawn(GroupFanOutLoop(sched, /*fanout=*/16, /*rounds=*/1000000,
                                &joins, &cancelled));
  }
  sched.RunUntil(100.3);  // mid-round: every shape has a frame parked
  ASSERT_GT(joins, 10u);
  ASSERT_GT(res.queue_length(), 16u);
  ASSERT_GT(sched.detached_in_flight(), 200u);

  const uint64_t allocations_before = g_allocations;
  const uint64_t events_before = sched.events_processed();
  const size_t unwound = sched.detached_in_flight();
  sched.CancelAll();
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "unwinding " << unwound << " processes allocated "
      << (g_allocations - allocations_before) << " times";
  EXPECT_EQ(sched.events_processed(), events_before);
  EXPECT_EQ(sched.detached_in_flight(), 0u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(res.busy(), 0);
  EXPECT_EQ(res.queue_length(), 0u);
}

// --- buffer pool -----------------------------------------------------------
// The slot-indexed frame table extends the guarantee to the buffer manager
// and the disk controller's cache below it (the same FrameTable class):
// hits touch only the open-addressing index and the policy's intrusive
// links; misses, evictions and dirty writebacks recycle frames through the
// fixed slot arrays and the coroutine arena; FetchRange leases its run
// scratch from a recycled pool.  After warm-up, steady-state churn under
// every eviction policy allocates exactly never.
//
// Each recycled pool (coroutine frames, the registry of in-flight
// processes, the resources' waiter rings) grows only at a new high-water
// mark, so the warm-up has to reach every mark.  It does so by
// construction, not by waiting for a rare peak: the churn caps its
// writeback backlog, and a priming pass first drives every pool past what
// the capped churn can reach.

constexpr int64_t kMaxDirtyPages = 4;

// A 28-page striped read served entirely from the controller cache (one
// group member per page, the widest fan-out of the churn's scans) while 64
// writebacks, far more than the churn ever has in flight, queue on the
// spindles, the controller and the CPU.
Task<> PrimeDiskPools(Scheduler& sched, DiskArray& disks) {
  co_await disks.ReadStriped(PageKey{3, 0}, 28);  // 7 prefetch batches
  for (int k = 0; k < 64; ++k) sched.Spawn(disks.WriteRandom(PageKey{4, k}));
  co_await disks.ReadStriped(PageKey{3, 0}, 28);  // 28 controller hits
}

Task<> BufferChurnLoop(Scheduler& sched, BufferManager& buf, int64_t rounds,
                       uint64_t* fetches) {
  uint64_t rng = 0x2545f4914f6cdd1dULL;
  int64_t marked_dirty = 0;
  for (int64_t i = 0; i < rounds; ++i) {
    // Four hot fetches (32-page working set, half the 64-page pool): hits
    // in steady state.
    for (int k = 0; k < 4; ++k) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      co_await buf.Fetch(PageKey{1, static_cast<int64_t>(rng % 32)},
                         AccessPattern::kRandom);
      ++*fetches;
    }
    // One cold fetch from a universe far larger than the pool: a miss that
    // forces an eviction, every round.
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    PageKey cold{1, 100 + static_cast<int64_t>(rng % 4096)};
    const bool hit = co_await buf.Fetch(cold, AccessPattern::kRandom);
    ++*fetches;
    // Dirty it so its eviction takes the async writeback path, unless
    // kMaxDirtyPages pages are already dirty or being written back.  A
    // dirtied miss is a clean page that is evicted exactly once, and the
    // writebacks are the only other processes in flight here.
    const int64_t backlog = marked_dirty - buf.dirty_writebacks() +
                            static_cast<int64_t>(sched.detached_in_flight()) -
                            1;
    if (!hit && backlog < kMaxDirtyPages) {
      buf.MarkDirty(cold);
      ++marked_dirty;
    }
    // A sequential scan with missing runs exercises the leased run scratch,
    // striped prefetch and controller-cache hits.  A striped read spawns
    // one group member per prefetch batch or cached page: up to 7 batches
    // or 28 hits here.  The 8 ranges (224 pages) overflow the 200-page
    // controller cache, so the scans mix hits with physical reads.
    if (i % 16 == 0) {
      co_await buf.FetchRange(PageKey{2, (i % 8) * 28}, 28);
      ++*fetches;
    }
  }
}

TEST(SchedulerAllocTest, BufferPoolChurnAllocatesNothing) {
  const EvictionPolicyKind kinds[] = {
      EvictionPolicyKind::kLru, EvictionPolicyKind::kLruK,
      EvictionPolicyKind::kLfu, EvictionPolicyKind::kClock};
  for (EvictionPolicyKind kind : kinds) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    Scheduler sched;
    sched.Reserve(/*events=*/256);
    Resource cpu(sched, /*servers=*/1, "cpu");
    CpuCosts costs;
    DiskConfig disk_config;
    BufferConfig buf_config;
    buf_config.buffer_pages = 64;
    buf_config.eviction = kind;
    DiskArray disks(sched, disk_config, costs, 20.0, cpu, "t");
    BufferManager buf(sched, buf_config, disks, "buf");

    sched.Spawn(PrimeDiskPools(sched, disks));
    sched.Run();
    uint64_t fetches = 0;
    sched.Spawn(BufferChurnLoop(sched, buf, /*rounds=*/1000000, &fetches));
    // Warm-up: fill the pool and the controller cache and reach eviction
    // steady state.
    sched.RunUntil(20000.0);
    ASSERT_GT(buf.evictions(), 100) << "shape does not actually evict";
    ASSERT_GT(buf.buffer_hits(), 100u);

    uint64_t allocations_before = g_allocations;
    uint64_t fetches_before = fetches;
    int64_t writebacks_before = buf.dirty_writebacks();
    int64_t controller_hits_before = disks.cache_hits();
    sched.RunUntil(400000.0);
    EXPECT_GT(fetches - fetches_before, 5000u);
    EXPECT_GT(buf.dirty_writebacks() - writebacks_before, 100);
    EXPECT_GT(disks.cache_hits() - controller_hits_before, 1000);
    EXPECT_EQ(g_allocations - allocations_before, 0u)
        << "fetch hit/miss/evict/writeback churn allocated under "
        << EvictionPolicyName(kind);
  }
}

// --- lock table ------------------------------------------------------------
// Recycled entry and transaction slots, holder vectors that keep their
// capacity across reuse, and waiter queues threaded through the waiting
// frames: once the tables have grown to their peak population, every lock
// path allocates exactly never — immediate shared and exclusive grants, a
// contended wait and its grant, ReleaseAll, AbortWaiter and the unwind of a
// cancelled waiter.

Task<> LockAndFinish(LockManager& lm, TxnId txn, LockKey key, LockMode mode,
                     uint64_t* finished) {
  (void)co_await lm.Lock(txn, key, mode);
  ++*finished;
}

Task<> LockChurnLoop(Scheduler& sched, LockManager& lm, int64_t rounds,
                     uint64_t* rounds_done, uint64_t* cancelled) {
  uint64_t finished = 0;
  for (int64_t i = 0; i < rounds; ++i) {
    const TxnId base = 1 + 5 * i;
    const LockKey shared_key{1, i % 64};
    const LockKey exclusive_key{1, 64 + i % 64};
    // Immediate grants: two shared holders, one exclusive lock.
    (void)co_await lm.Lock(base, shared_key, LockMode::kShared);
    (void)co_await lm.Lock(base + 1, shared_key, LockMode::kShared);
    (void)co_await lm.Lock(base, exclusive_key, LockMode::kExclusive);
    // Contended exclusive request: parks until ReleaseAll grants it.
    sched.Spawn(LockAndFinish(lm, base + 2, exclusive_key,
                              LockMode::kExclusive, &finished));
    co_await sched.Delay(0.5);
    lm.ReleaseAll(base);
    co_await sched.Delay(0.5);
    // A deadlock victim: parks behind the shared holder, then is aborted.
    sched.Spawn(LockAndFinish(lm, base + 3, shared_key, LockMode::kExclusive,
                              &finished));
    co_await sched.Delay(0.5);
    (void)lm.AbortWaiter(base + 3);
    // A waiter whose frame is destroyed while it is parked.
    const uint64_t victim = sched.SpawnWithId(LockAndFinish(
        lm, base + 4, shared_key, LockMode::kExclusive, &finished));
    co_await sched.Delay(0.5);
    if (sched.Cancel(victim)) ++*cancelled;
    for (TxnId t = base; t < base + 5; ++t) lm.ReleaseAll(t);
    ++*rounds_done;
  }
}

TEST(SchedulerAllocTest, LockTableChurnAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  LockManager lm(sched);
  uint64_t rounds = 0;
  uint64_t cancelled = 0;
  sched.Spawn(LockChurnLoop(sched, lm, /*rounds=*/1000000, &rounds,
                            &cancelled));
  sched.RunUntil(1000.0);  // warm-up: tables, arena and registry grow
  ASSERT_GT(rounds, 100u);

  const uint64_t allocations_before = g_allocations;
  const uint64_t rounds_before = rounds;
  const int64_t waits_before = lm.lock_waits();
  const int64_t aborts_before = lm.deadlock_aborts();
  const uint64_t cancelled_before = cancelled;
  sched.RunUntil(50000.0);
  EXPECT_GT(rounds - rounds_before, 10000u);
  // Every round parks three waiters: one granted, one aborted, one
  // cancelled.
  EXPECT_EQ(lm.lock_waits() - waits_before,
            3 * static_cast<int64_t>(rounds - rounds_before));
  EXPECT_EQ(lm.deadlock_aborts() - aborts_before,
            static_cast<int64_t>(rounds - rounds_before));
  EXPECT_EQ(cancelled - cancelled_before, rounds - rounds_before);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "lock/wait/release/abort/cancel churn allocated "
      << (g_allocations - allocations_before) << " times";
}

TEST(SchedulerAllocTest, AllocationCounterIsLive) {
  // Sanity-check the instrumentation itself.
  uint64_t before = g_allocations;
  int* p = new int(1);
  EXPECT_GT(g_allocations, before);
  delete p;
}

}  // namespace
}  // namespace pdblb::sim
