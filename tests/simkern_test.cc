// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for the discrete-event kernel: scheduling order, delays,
// resources, channels, latches, RNG determinism and statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "simkern/channel.h"
#include "simkern/latch.h"
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

TEST(SchedulerTest, CallbacksRun) {
  Scheduler sched;
  int hits = 0;
  sched.ScheduleCallback(2.0, [&] { ++hits; });
  sched.ScheduleCallback(4.0, [&] { ++hits; });
  sched.Run();
  EXPECT_EQ(hits, 2);
}

TEST(SchedulerTest, EqualTimestampFifoAcrossCallbacksAndCoroutines) {
  // Callbacks scheduled directly at t=5 come first (they draw sequence
  // numbers at schedule time); the spawned coroutines re-queue themselves
  // at t=5 only when they start running at t=0, so their sequence numbers
  // are strictly larger.  The dispatch order must reflect exactly that,
  // regardless of which internal structure (ring or heap) held each event.
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      sched.ScheduleCallback(5.0, [&order, i] { order.push_back(i); });
    } else {
      sched.Spawn(AppendAfter(sched, 5.0, i, &order));
    }
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
  sched.ScheduleCallback(0.0, [] {});  // at Now(): ring
  sched.ScheduleCallback(3.0, [] {});  // future: heap
  sched.ScheduleCallback(7.0, [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  sched.Run();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.events_processed(), 3u);
}

// Dispatching a callback must not copy the callable: it is moved into its
// storage cell once at schedule time and invoked in place.  (The previous
// kernel copied the std::function out of priority_queue::top() on every
// dispatch.)
struct CopyCountingCallback {
  static int copies;
  static int invocations;
  int payload = 0;

  CopyCountingCallback() = default;
  CopyCountingCallback(const CopyCountingCallback& other)
      : payload(other.payload) {
    ++copies;
  }
  CopyCountingCallback(CopyCountingCallback&& other) noexcept
      : payload(other.payload) {}
  void operator()() const { ++invocations; }
};
int CopyCountingCallback::copies = 0;
int CopyCountingCallback::invocations = 0;

TEST(SchedulerTest, DispatchDoesNotCopyCallbacks) {
  CopyCountingCallback::copies = 0;
  CopyCountingCallback::invocations = 0;
  Scheduler sched;
  for (int i = 0; i < 100; ++i) {
    sched.ScheduleCallback(1.0 + i, CopyCountingCallback{});
  }
  sched.Run();
  EXPECT_EQ(CopyCountingCallback::invocations, 100);
  EXPECT_EQ(CopyCountingCallback::copies, 0);
}

TEST(SchedulerTest, LargeCallbacksSurviveTheInlineCellLimit) {
  // Callables above the inline cell size take a boxed fallback path; they
  // must still run correctly and destroy cleanly when left pending.
  Scheduler sched;
  std::array<uint64_t, 32> big_payload;
  big_payload.fill(7);
  uint64_t sum = 0;
  sched.ScheduleCallback(1.0, [big_payload, &sum] {
    for (uint64_t v : big_payload) sum += v;
  });
  // A second large callable is intentionally left pending at destruction.
  sched.ScheduleCallback(2.0, [big_payload, &sum] { sum += big_payload[0]; });
  sched.RunUntil(1.5);
  EXPECT_EQ(sum, 7u * 32u);
}

TEST(SchedulerTest, DeterministicEventCountAcrossIdenticalRuns) {
  auto run_once = [] {
    Scheduler sched;
    std::vector<int> order;
    Rng rng(42);
    for (int i = 0; i < 50; ++i) {
      sched.Spawn(AppendAfter(sched, rng.Exponential(3.0), i, &order));
      if (i % 3 == 0) {
        sched.ScheduleCallback(rng.Exponential(5.0), [] {});
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
  EXPECT_NEAR(res.Utilization(), 1.0, 1e-9);
  EXPECT_EQ(res.completed(), 5u);
}

TEST(ResourceTest, UtilizationReflectsIdleTime) {
  Scheduler sched;
  Resource res(sched, 2);
  std::vector<SimTime> completions;
  sched.Spawn(UseResource(sched, res, 10.0, &completions));
  sched.Spawn(IdleUntil(sched, 40.0));  // stretch the horizon to 40 ms
  // One server busy 10 ms out of a 40 ms horizon on 2 servers: 12.5%.
  sched.Run();
  EXPECT_NEAR(res.Utilization(), 10.0 / (2 * 40.0), 1e-9);
}

TEST(ResourceTest, ResetStatsStartsFreshWindow) {
  Scheduler sched;
  Resource res(sched, 1);
  std::vector<SimTime> completions;
  sched.Spawn(UseResource(sched, res, 10.0, &completions));
  sched.Run();
  res.ResetStats();
  sched.Spawn(IdleUntil(sched, 10.0));
  sched.Run();
  EXPECT_NEAR(res.Utilization(), 0.0, 1e-9);
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

TEST(ChannelTest, MultipleConsumersShareValues) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> got1, got2;
  sched.Spawn(Consumer(ch, &got1));
  sched.Spawn(Consumer(ch, &got2));
  sched.Spawn(Producer(sched, ch, 10));
  sched.Run();
  EXPECT_EQ(got1.size() + got2.size(), 10u);
}

TEST(ChannelTest, CloseWithoutValuesUnblocksConsumer) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> got;
  sched.Spawn(Consumer(ch, &got));
  sched.ScheduleCallback(5.0, [&] { ch.Close(); });
  sched.Run();
  EXPECT_TRUE(got.empty());
}

Task<> FlaggedConsumer(Channel<int>& ch, std::vector<int>* got, bool* done) {
  while (true) {
    auto v = co_await ch.Receive();
    if (!v.has_value()) break;
    got->push_back(*v);
  }
  *done = true;
}

// Regression: Receive() on a closed-but-not-drained channel used to suspend
// forever when every remaining value was already promised to a pending
// wakeup — nobody was left to wake the new waiter.  Here both values are
// promised (hand-off wakeups for c1 and c2); c1 drains its value and loops
// into another Receive while c2's value is still in the queue.  That second
// Receive must observe the close immediately instead of parking c1 forever.
TEST(ChannelTest, CloseWithPromisedValuesDoesNotStrandLoopingConsumer) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> got1, got2;
  bool done1 = false, done2 = false;
  sched.Spawn(FlaggedConsumer(ch, &got1, &done1));
  sched.Spawn(FlaggedConsumer(ch, &got2, &done2));
  sched.ScheduleCallback(1.0, [&] {
    ch.Send(1);  // promised to c1 (hand-off wakeup)
    ch.Send(2);  // promised to c2 (hand-off wakeup)
    ch.Close();
  });
  sched.Run();
  EXPECT_TRUE(done1) << "consumer 1 stranded on the closed channel";
  EXPECT_TRUE(done2) << "consumer 2 stranded on the closed channel";
  EXPECT_EQ(got1, (std::vector<int>{1}));
  EXPECT_EQ(got2, (std::vector<int>{2}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

// Multi-consumer close/drain: wakeups arrive through both paths (hand-off
// lane for Send, calendar broadcast for Close).  Every consumer must
// terminate, every value must be delivered exactly once, and the late
// receivers must observe the close.
TEST(ChannelTest, MultiConsumerCloseDrainsAllValuesAndUnblocksEveryone) {
  Scheduler sched;
  Channel<int> ch(sched);
  constexpr int kConsumers = 4;
  std::vector<int> got[kConsumers];
  bool done[kConsumers] = {};
  for (int i = 0; i < kConsumers; ++i) {
    sched.Spawn(FlaggedConsumer(ch, &got[i], &done[i]));
  }
  sched.ScheduleCallback(2.0, [&] {
    ch.Send(10);  // hand-off wakeup
    ch.Send(20);  // hand-off wakeup
    ch.Close();   // calendar broadcast to the two remaining waiters
  });
  sched.Run();
  std::vector<int> all;
  for (int i = 0; i < kConsumers; ++i) {
    EXPECT_TRUE(done[i]) << "consumer " << i << " stranded";
    for (int v : got[i]) all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<int>{10, 20}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

// A receiver arriving after the close while unpromised values remain must
// still drain them (close semantics: drain, then nullopt).
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

TEST(LatchTest, WaitersReleasedOnFinalCountDown) {
  Scheduler sched;
  bool done = false;
  auto waiter = [](Scheduler& s, Latch& l, bool* flag) -> Task<> {
    co_await l.Wait();
    *flag = true;
    (void)s;
  };
  Latch latch(sched, 3);
  sched.Spawn(waiter(sched, latch, &done));
  sched.ScheduleCallback(1.0, [&] { latch.CountDown(); });
  sched.ScheduleCallback(2.0, [&] { latch.CountDown(); });
  sched.ScheduleCallback(3.0, [&] { latch.CountDown(); });
  sched.Run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sched.Now(), 3.0);
}

TEST(LatchTest, ZeroCountIsImmediatelyDone) {
  Scheduler sched;
  Latch latch(sched, 0);
  EXPECT_TRUE(latch.Done());
  bool done = false;
  auto waiter = [](Latch& l, bool* flag) -> Task<> {
    co_await l.Wait();
    *flag = true;
  };
  sched.Spawn(waiter(latch, &done));
  sched.Run();
  EXPECT_TRUE(done);
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
  EXPECT_NEAR(res.Utilization(),
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
