// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for the discrete-event kernel: scheduling order, delays,
// resources, channels, task groups, exceptions, RNG determinism and
// statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "run_at.h"
#include "simkern/channel.h"
#include "simkern/resource.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/stats.h"
#include "simkern/task.h"
#include "simkern/task_group.h"

namespace pdblb::sim {
namespace {

Task<> AppendAfter(Scheduler& sched, SimTime delay, int id,
                   std::vector<int>* order) {
  co_await sched.Delay(delay);
  order->push_back(id);
}

Task<> IdleUntil(Scheduler& sched, SimTime delay) { co_await sched.Delay(delay); }

TEST(SchedulerTest, EventsRunInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn(AppendAfter(sched, 5.0, 1, &order));
  sched.Spawn(AppendAfter(sched, 1.0, 2, &order));
  sched.Spawn(AppendAfter(sched, 3.0, 3, &order));
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
  EXPECT_DOUBLE_EQ(sched.Now(), 5.0);
}

TEST(SchedulerTest, EqualTimestampsAreFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.Spawn(AppendAfter(sched, 2.0, i, &order));
  }
  sched.Run();
  std::vector<int> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, RunUntilStopsAtBoundary) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn(AppendAfter(sched, 1.0, 1, &order));
  sched.Spawn(AppendAfter(sched, 10.0, 2, &order));
  sched.RunUntil(5.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sched.Now(), 5.0);
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, EqualTimestampFifoAcrossCallbacksAndCoroutines) {
  // RunAt callbacks for the even ids wait in the heap for t=5.  The first
  // of them spawns the odd-id coroutines, which enter the same-time ring at
  // t=5 while callbacks 2..8 are still in the heap for t=5.  Those were
  // scheduled first, so they run first: the dispatch order is the schedule
  // order, regardless of which internal structure (ring or heap) held each
  // event.
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; i += 2) {
    RunAt(sched, 5.0, [&sched, &order, i] {
      order.push_back(i);
      if (i != 0) return;
      for (int k = 1; k < 10; k += 2) {
        sched.Spawn(AppendAfter(sched, 0.0, k, &order));
      }
    });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 1, 3, 5, 7, 9}));
}

TEST(SchedulerTest, RunUntilIncludesEventsExactlyAtBoundary) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn(AppendAfter(sched, 5.0, 1, &order));
  sched.Spawn(AppendAfter(sched, 5.0 + 1e-9, 2, &order));
  sched.RunUntil(5.0);
  EXPECT_EQ(order, (std::vector<int>{1}));  // <= until runs, later stays
  EXPECT_DOUBLE_EQ(sched.Now(), 5.0);
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.RunUntil(5.0);  // idempotent at the same boundary
  EXPECT_EQ(order, (std::vector<int>{1}));
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, PendingEventsCountsRingAndHeap) {
  Scheduler sched;
  sched.Spawn(IdleUntil(sched, 3.0));
  sched.Spawn(IdleUntil(sched, 7.0));
  sched.RunUntil(0.0);  // both started: future wake-ups, in the heap
  sched.Spawn([]() -> Task<> { co_return; }());  // at Now(): ring
  EXPECT_EQ(sched.pending_events(), 3u);
  const uint64_t before = sched.events_processed();
  sched.Run();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.events_processed() - before, 3u);
}

// Records `id`, and the scheduler's pending-event count if asked.
Task<> AppendNow(Scheduler& sched, int id, std::vector<int>* order,
                 size_t* pending = nullptr) {
  order->push_back(id);
  if (pending != nullptr) *pending = sched.pending_events();
  co_return;
}

TEST(SchedulerTest, SameTimeRingKeepsScheduleOrderAcrossWrapAndGrow) {
  // 40 spawns at t=0 grow the same-time ring to 64 slots and leave its head
  // at slot 40; the 40 processes then wait in the heap for t=5.  At t=5
  // process 0 spawns 100..129 into the ring (slots 40..63, then 0..5, past
  // the wrap point) and cancels 127, which sits in slot 3.  Process 1 then
  // spawns 130..169, which fills the wrapped ring and grows it.  Processes
  // 2..39 wait in the heap at t=5 all the while.
  Scheduler sched;
  std::vector<int> order;
  size_t pending_after_victim = 0;
  RunAt(sched, 5.0, [&] {
    order.push_back(0);
    uint64_t victim = 0;
    for (int id = 100; id < 130; ++id) {
      uint64_t spawn_id = sched.SpawnWithId(AppendNow(
          sched, id, &order, id == 128 ? &pending_after_victim : nullptr));
      if (id == 127) victim = spawn_id;
    }
    EXPECT_TRUE(sched.Cancel(victim));
  });
  RunAt(sched, 5.0, [&] {
    order.push_back(1);
    for (int id = 130; id < 170; ++id) {
      sched.Spawn(AppendNow(sched, id, &order));
    }
  });
  for (int id = 2; id < 40; ++id) {
    sched.Spawn(AppendAfter(sched, 5.0, id, &order));
  }
  sched.Run();

  std::vector<int> expected;
  for (int id = 0; id < 40; ++id) expected.push_back(id);
  for (int id = 100; id < 170; ++id) {
    if (id != 127) expected.push_back(id);
  }
  EXPECT_EQ(order, expected);
  // When 128 runs, the ring holds 129..169: the cancelled entry is gone.
  EXPECT_EQ(pending_after_victim, 41u);
  EXPECT_EQ(sched.pending_events(), 0u);
  // 40 spawns at t=0, then 40 heap wake-ups and 69 ring dispatches at t=5.
  EXPECT_EQ(sched.events_processed(), 149u);
}

TEST(SchedulerTest, DeterministicEventCountAcrossIdenticalRuns) {
  auto run_once = [] {
    Scheduler sched;
    std::vector<int> order;
    Rng rng(42);
    for (int i = 0; i < 50; ++i) {
      sched.Spawn(AppendAfter(sched, rng.Exponential(3.0), i, &order));
      if (i % 3 == 0) {
        sched.Spawn(IdleUntil(sched, rng.Exponential(5.0)));
      }
    }
    sched.Run();
    return std::pair<uint64_t, std::vector<int>>(sched.events_processed(),
                                                 order);
  };
  auto [events_a, order_a] = run_once();
  auto [events_b, order_b] = run_once();
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(order_a, order_b);
}

Task<> NestedChild(Scheduler& sched, int* state) {
  *state = 1;
  co_await sched.Delay(1.0);
  *state = 2;
}

Task<> NestedParent(Scheduler& sched, int* state, SimTime* end_time) {
  co_await NestedChild(sched, state);
  *end_time = sched.Now();
}

TEST(TaskTest, NestedAwaitRunsChildToCompletion) {
  Scheduler sched;
  int state = 0;
  SimTime end_time = -1.0;
  sched.Spawn(NestedParent(sched, &state, &end_time));
  sched.Run();
  EXPECT_EQ(state, 2);
  EXPECT_DOUBLE_EQ(end_time, 1.0);
}

Task<int> Compute(Scheduler& sched, int x) {
  co_await sched.Delay(1.0);
  co_return x * 2;
}

Task<> UseValue(Scheduler& sched, int* out) {
  *out = co_await Compute(sched, 21);
}

TEST(TaskTest, ValueReturningTask) {
  Scheduler sched;
  int out = 0;
  sched.Spawn(UseValue(sched, &out));
  sched.Run();
  EXPECT_EQ(out, 42);
}

TEST(TaskGroupTest, WaitEndsAtSlowestMember) {
  Scheduler sched;
  std::vector<int> order;
  SimTime end = -1.0;
  auto parent = [](Scheduler& s, std::vector<int>* ord,
                   SimTime* end_time) -> Task<> {
    TaskGroup group(s);
    group.Spawn(AppendAfter(s, 3.0, 1, ord));
    group.Spawn(AppendAfter(s, 7.0, 2, ord));
    group.Spawn(AppendAfter(s, 5.0, 3, ord));
    co_await group.Wait();
    *end_time = s.Now();
  };
  sched.Spawn(parent(sched, &order, &end));
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_DOUBLE_EQ(end, 7.0);
}

TEST(TaskGroupTest, EmptyGroupWaitEndsAtOnce) {
  Scheduler sched;
  bool done = false;
  auto parent = [](Scheduler& s, bool* flag) -> Task<> {
    TaskGroup group(s);
    co_await group.Wait();
    *flag = true;
  };
  sched.Spawn(parent(sched, &done));
  sched.Run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sched.Now(), 0.0);
}

// A member cancelled by its spawn id ends for its group as one that
// completes does: with the other member already finished, the waiter
// resumes at the cancel instant and the group is empty.
TEST(TaskGroupTest, CancelledMemberEndsForItsGroup) {
  Scheduler sched;
  TaskGroup group(sched);
  std::vector<int> order;
  SimTime end = -1.0;
  const uint64_t victim = group.Spawn(AppendAfter(sched, 10.0, 1, &order));
  group.Spawn(AppendAfter(sched, 2.0, 2, &order));
  auto waiter = [](Scheduler& s, TaskGroup& g, SimTime* end_time) -> Task<> {
    co_await g.Wait();
    *end_time = s.Now();
  };
  sched.Spawn(waiter(sched, group, &end));
  RunAt(sched, 5.0, [&] { EXPECT_TRUE(sched.Cancel(victim)); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(end, 5.0) << "the waiter did not resume at the cancel";
  EXPECT_EQ(group.active(), 0);
}

// An exception escaping a simulation process must not vanish.  A detached
// process has no parent to rethrow into, so the exception leaves Run (or
// RunUntil); the thrower stays parked at its final suspend point and
// ~Scheduler destroys it, which the ASan build checks for leaks and
// double frees.
Task<> ThrowAfter(Scheduler& sched, SimTime delay) {
  co_await sched.Delay(delay);
  throw std::runtime_error("process failed");
}

TEST(TaskTest, DetachedThrowLeavesRun) {
  Scheduler sched;
  sched.Spawn(ThrowAfter(sched, 1.0));
  EXPECT_THROW(sched.Run(), std::runtime_error);
  EXPECT_DOUBLE_EQ(sched.Now(), 1.0);
  EXPECT_EQ(sched.detached_in_flight(), 1u);
}

TEST(TaskTest, ThrowInAwaitedChildOfDetachedParentLeavesRun) {
  Scheduler sched;
  bool resumed = false;
  auto parent = [](Scheduler& s, bool* flag) -> Task<> {
    co_await ThrowAfter(s, 1.0);
    *flag = true;
  };
  sched.Spawn(parent(sched, &resumed));
  EXPECT_THROW(sched.Run(), std::runtime_error);
  EXPECT_FALSE(resumed);
  EXPECT_EQ(sched.detached_in_flight(), 1u);
}

TEST(TaskGroupTest, MemberThrowLeavesRunUntil) {
  Scheduler sched;
  bool joined = false;
  auto parent = [](Scheduler& s, bool* flag) -> Task<> {
    TaskGroup group(s);
    group.Spawn(IdleUntil(s, 1.0));
    group.Spawn(ThrowAfter(s, 2.0));
    group.Spawn(IdleUntil(s, 3.0));
    co_await group.Wait();
    *flag = true;
  };
  sched.Spawn(parent(sched, &joined));
  EXPECT_THROW(sched.RunUntil(10.0), std::runtime_error);
  EXPECT_FALSE(joined);
  EXPECT_DOUBLE_EQ(sched.Now(), 2.0);
  // The waiting owner, the thrower and the slowest member.
  EXPECT_EQ(sched.detached_in_flight(), 3u);
}

// A dispatched heap event's slot stays in the heap as a free root until
// the process pushes its next event or the next pop removes it.  The tests
// below pin what must not leak out of that window.

TEST(SchedulerTest, CancelFromHandOffScrubsTheRingEntryOfAHeapWokenProcess) {
  // The victim wakes from the heap at t=1, hands a value to the blocked
  // consumer and parks with Delay(0), a ring entry.  The consumer runs from
  // the hand-off lane before the next pop and cancels the victim: the ring
  // entry must be scrubbed, so the victim never resumes.  (Here the Delay
  // awaiter's destructor scrubs a second time; the next test cancels a
  // process that has no such awaiter.)
  Scheduler sched;
  Channel<int> ch(sched);
  uint64_t victim = 0;
  bool cancelled = false;
  bool victim_resumed = false;
  auto consumer = [](Scheduler& s, Channel<int>& c, const uint64_t* id,
                     bool* done) -> Task<> {
    co_await c.Receive();
    *done = s.Cancel(*id);
  };
  auto sender = [](Scheduler& s, Channel<int>& c, bool* resumed) -> Task<> {
    co_await s.Delay(1.0);
    c.Send(7);
    co_await s.Delay(0.0);
    *resumed = true;
  };
  sched.Spawn(consumer(sched, ch, &victim, &cancelled));
  victim = sched.SpawnWithId(sender(sched, ch, &victim_resumed));
  sched.Run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(victim_resumed);
  EXPECT_FALSE(sched.Alive(victim));
  EXPECT_EQ(sched.pending_events(), 0u);
  // Two spawns and the heap wake-up; the scrubbed Delay(0) never dispatches.
  EXPECT_EQ(sched.events_processed(), 3u);
}

// Counts its start, wakes at `at`, sends one value and finishes.
Task<> SendAt(Scheduler& sched, Channel<int>& ch, SimTime at, int* starts) {
  ++*starts;
  co_await sched.Delay(at - sched.Now());
  ch.Send(1);
}

TEST(SchedulerTest, CancelFromHandOffMissesTheSlotOfAFinishedHeapWokenProcess) {
  // The first sender wakes from the heap at t=1, hands a value to the
  // blocked consumer and finishes, returning its frame to the frame arena.
  // The consumer runs from the hand-off lane before the next pop, spawns a
  // second sender (the arena hands it the same frame) and cancels it
  // before it starts.  The scrub must hit the new spawn's ring entry, not
  // the dispatched slot that held the same frame address: an unstarted
  // process has no awaiter whose destructor would scrub it a second time.
  Scheduler sched;
  Channel<int> ch(sched);
  int starts = 0;
  bool cancelled = false;
  auto consumer = [](Scheduler& s, Channel<int>& c, int* count,
                     bool* done) -> Task<> {
    co_await c.Receive();
    *done = s.Cancel(s.SpawnWithId(SendAt(s, c, 2.0, count)));
  };
  sched.Spawn(consumer(sched, ch, &starts, &cancelled));
  sched.Spawn(SendAt(sched, ch, 1.0, &starts));
  sched.Run();
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(starts, 1);  // the second sender never started
  EXPECT_EQ(sched.detached_in_flight(), 0u);
  EXPECT_EQ(sched.events_processed(), 3u);
}

TEST(SchedulerTest, PendingEventsSeenByAHeapWokenProcessLeavesItsOwnOut) {
  Scheduler sched;
  size_t seen = 0;
  auto reader = [](Scheduler& s, size_t* out) -> Task<> {
    co_await s.Delay(1.0);
    *out = s.pending_events();
  };
  sched.Spawn(reader(sched, &seen));
  sched.Spawn(IdleUntil(sched, 2.0));
  sched.Spawn(IdleUntil(sched, 3.0));
  sched.Run();
  EXPECT_EQ(seen, 2u);  // the two idlers' wake-ups, not the reader's own
}

TEST(SchedulerTest, RunAfterAThrowFromAHeapWokenProcessFinishesTheRest) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn(ThrowAfter(sched, 1.0));
  sched.Spawn(AppendAfter(sched, 2.0, 1, &order));
  EXPECT_THROW(sched.Run(), std::runtime_error);
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sched.Now(), 2.0);
  EXPECT_EQ(sched.pending_events(), 0u);
}

// CancelAll ends a run: one process parked in each cancellation-aware wait
// at once is unwound without resuming, and every station comes back idle.
// At t=5 the resource's first user has released its server, granting the
// second user (resume pending at 15) with the third still queued; a
// consumer woken by a Send from outside the run sits in the hand-off lane.
TEST(SchedulerTest, CancelAllUnwindsEveryWait) {
  Scheduler sched;
  Resource res(sched, /*servers=*/1);
  Channel<int> blocked(sched);
  Channel<int> handed(sched);
  std::vector<int> resumed;
  auto after_delay = [](Scheduler& s, int id, std::vector<int>* log)
      -> Task<> {
    co_await s.Delay(100.0);
    log->push_back(id);
  };
  auto use = [](Resource& r, SimTime service, int id,
                std::vector<int>* log) -> Task<> {
    co_await r.Use(service);
    log->push_back(id);
  };
  auto receive = [](Channel<int>& c, int id, std::vector<int>* log)
      -> Task<> {
    co_await c.Receive();
    log->push_back(id);
  };
  auto owner = [](Scheduler& s, int id, std::vector<int>* log) -> Task<> {
    TaskGroup group(s);
    group.Spawn(IdleUntil(s, 50.0));
    group.Spawn(IdleUntil(s, 60.0));
    co_await group.Wait();
    log->push_back(id);
  };
  sched.Spawn(after_delay(sched, 1, &resumed));
  sched.Spawn(use(res, 5.0, 0, &resumed));  // ends at 5: not a victim
  sched.Spawn(use(res, 10.0, 2, &resumed));
  sched.Spawn(use(res, 1.0, 3, &resumed));
  sched.Spawn(receive(blocked, 4, &resumed));
  sched.Spawn(receive(handed, 5, &resumed));
  sched.Spawn(owner(sched, 6, &resumed));
  sched.RunUntil(5.0);
  ASSERT_EQ(resumed, (std::vector<int>{0}));
  ASSERT_EQ(res.busy(), 1);
  ASSERT_EQ(res.queue_length(), 1u);
  handed.Send(7);  // the consumer waits in the hand-off lane
  ASSERT_EQ(sched.detached_in_flight(), 8u);  // six victims, two members

  const uint64_t events = sched.events_processed();
  const uint64_t handoffs = sched.inline_resumes();
  sched.CancelAll();
  EXPECT_EQ(sched.detached_in_flight(), 0u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(res.busy(), 0);
  EXPECT_EQ(res.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(sched.Now(), 5.0);
  sched.Run();  // nothing is left to resume
  EXPECT_EQ(resumed, (std::vector<int>{0}));
  EXPECT_EQ(sched.events_processed(), events);
  EXPECT_EQ(sched.inline_resumes(), handoffs);
  EXPECT_DOUBLE_EQ(sched.Now(), 5.0);
}

Task<> UseResource(Scheduler& sched, Resource& res, SimTime service,
                   std::vector<SimTime>* completions) {
  co_await res.Use(service);
  completions->push_back(sched.Now());
}

TEST(ResourceTest, SingleServerSerializesFcfs) {
  Scheduler sched;
  Resource res(sched, 1, "cpu");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    sched.Spawn(UseResource(sched, res, 10.0, &completions));
  }
  sched.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{10.0, 20.0, 30.0}));
}

TEST(ResourceTest, MultiServerRunsInParallel) {
  Scheduler sched;
  Resource res(sched, 3, "cpus");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    sched.Spawn(UseResource(sched, res, 10.0, &completions));
  }
  sched.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{10.0, 10.0, 10.0}));
}

TEST(ResourceTest, UtilizationOfSaturatedServerIsOne) {
  Scheduler sched;
  Resource res(sched, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 5; ++i) {
    sched.Spawn(UseResource(sched, res, 4.0, &completions));
  }
  sched.Run();
  EXPECT_DOUBLE_EQ(sched.Now(), 20.0);
  // Utilization over a window is the busy integral's delta over servers x
  // window, as the control node's reports compute it.
  EXPECT_NEAR(res.BusyIntegral() / sched.Now(), 1.0, 1e-9);
  EXPECT_EQ(res.completed(), 5u);
  EXPECT_EQ(res.max_queue_length(), 4u);
}

TEST(ResourceTest, UtilizationReflectsIdleTime) {
  Scheduler sched;
  Resource res(sched, 2);
  std::vector<SimTime> completions;
  sched.Spawn(UseResource(sched, res, 10.0, &completions));
  sched.Spawn(IdleUntil(sched, 40.0));  // stretch the horizon to 40 ms
  // One server busy 10 ms out of a 40 ms horizon on 2 servers: 12.5%.
  sched.Run();
  EXPECT_DOUBLE_EQ(sched.Now(), 40.0);
  EXPECT_NEAR(res.BusyIntegral(), 10.0, 1e-9);
  EXPECT_NEAR(res.BusyIntegral() / (2 * sched.Now()), 10.0 / (2 * 40.0),
              1e-9);
}

TEST(ResourceTest, ResetStatsStartsFreshWindow) {
  Scheduler sched;
  Resource res(sched, 1);
  std::vector<SimTime> completions;
  // The second use queues behind the first.
  sched.Spawn(UseResource(sched, res, 10.0, &completions));
  sched.Spawn(UseResource(sched, res, 10.0, &completions));
  sched.Run();
  EXPECT_EQ(res.completed(), 2u);
  EXPECT_EQ(res.max_queue_length(), 1u);
  const double busy_at_reset = res.BusyIntegral();
  EXPECT_NEAR(busy_at_reset, 20.0, 1e-9);
  res.ResetStats();
  EXPECT_EQ(res.completed(), 0u);
  EXPECT_EQ(res.max_queue_length(), 0u);
  // An idle window after the reset: the busy integral runs on across it,
  // and its delta over the window is zero.
  sched.Spawn(IdleUntil(sched, 10.0));
  sched.Run();
  EXPECT_NEAR(res.BusyIntegral() - busy_at_reset, 0.0, 1e-9);
  EXPECT_EQ(res.completed(), 0u);
}

Task<> Producer(Scheduler& sched, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sched.Delay(1.0);
    ch.Send(i);
  }
  ch.Close();
}

Task<> Consumer(Channel<int>& ch, std::vector<int>* got) {
  while (true) {
    auto v = co_await ch.Receive();
    if (!v.has_value()) break;
    got->push_back(*v);
  }
}

TEST(ChannelTest, DeliversAllValuesInOrder) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> got;
  sched.Spawn(Consumer(ch, &got));
  sched.Spawn(Producer(sched, ch, 5));
  sched.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, CloseWithoutValuesUnblocksConsumer) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> got;
  sched.Spawn(Consumer(ch, &got));
  RunAt(sched, 5.0, [&] { ch.Close(); });
  sched.Run();
  EXPECT_TRUE(got.empty());
}

// One process consumes a channel: a second consumer parking beside the
// first asserts.  Release builds compile the check out, and there the two
// consumers just park until teardown.
TEST(ChannelDeathTest, SecondConcurrentConsumerAsserts) {
  auto two_consumers = [] {
    Scheduler sched;
    Channel<int> ch(sched);
    std::vector<int> got1, got2;
    sched.Spawn(Consumer(ch, &got1));
    sched.Spawn(Consumer(ch, &got2));
    sched.Run();
  };
  EXPECT_DEBUG_DEATH(two_consumers(), "second consumer");
}

Task<> FlaggedConsumer(Channel<int>& ch, std::vector<int>* got, bool* done) {
  while (true) {
    auto v = co_await ch.Receive();
    if (!v.has_value()) break;
    got->push_back(*v);
  }
  *done = true;
}

// A receiver arriving after the close while values remain must still drain
// them (close semantics: drain, then nullopt).
TEST(ChannelTest, ReceiveAfterCloseDrainsUnpromisedValues) {
  Scheduler sched;
  Channel<int> ch(sched);
  ch.Send(1);
  ch.Send(2);
  ch.Close();
  std::vector<int> got;
  bool done = false;
  sched.Spawn(FlaggedConsumer(ch, &got, &done));
  sched.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.Fork(1);
  Rng b = root.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng r1(99), r2(99);
  Rng a = r1.Fork(3);
  Rng b = r2.Fork(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng r(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng r(11);
  auto sample = r.SampleWithoutReplacement(20, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::vector<bool> seen(20, false);
  for (int x : sample) {
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 20);
    EXPECT_FALSE(seen[x]);
    seen[x] = true;
  }
}

TEST(RngTest, SampleFullRangeIsPermutation) {
  Rng r(13);
  auto sample = r.SampleWithoutReplacement(8, 8);
  std::vector<bool> seen(8, false);
  for (int x : sample) seen[x] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SampleStatTest, MeanAndVariance) {
  SampleStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8);
}

TEST(SampleStatTest, EmptyStatIsZero) {
  SampleStat s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.count(), 0);
}

// Property-style sweep: with k servers and m jobs of equal service time s,
// the makespan is ceil(m/k)*s and utilization is m*s/(k*makespan).
struct ResourceLawParam {
  int servers;
  int jobs;
  double service;
};

class ResourceLawTest : public ::testing::TestWithParam<ResourceLawParam> {};

TEST_P(ResourceLawTest, MakespanAndUtilizationLaws) {
  const auto p = GetParam();
  Scheduler sched;
  Resource res(sched, p.servers);
  std::vector<SimTime> completions;
  for (int i = 0; i < p.jobs; ++i) {
    sched.Spawn(UseResource(sched, res, p.service, &completions));
  }
  sched.Run();
  double batches = std::ceil(static_cast<double>(p.jobs) / p.servers);
  EXPECT_DOUBLE_EQ(sched.Now(), batches * p.service);
  EXPECT_NEAR(res.BusyIntegral() / (p.servers * sched.Now()),
              p.jobs * p.service / (p.servers * sched.Now()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, ResourceLawTest,
    ::testing::Values(ResourceLawParam{1, 1, 3.0}, ResourceLawParam{1, 7, 2.0},
                      ResourceLawParam{2, 8, 5.0}, ResourceLawParam{3, 7, 1.0},
                      ResourceLawParam{4, 16, 2.5},
                      ResourceLawParam{8, 3, 4.0}));

}  // namespace
}  // namespace pdblb::sim
