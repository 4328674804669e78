// Copyright 2026 the pdblb authors. MIT license.
//
// Raw discrete-event kernel throughput: how many scheduler events per second
// can the simkern dispatch?  Every figure bench runs millions of these, so
// this is the repo-wide hot path.  Scenarios:
//
//   TimerChurn          N coroutines looping on staggered Delay()s
//   ZeroDelayPingPong   Delay(0) chains (same-timestamp FIFO fast path)
//   ResourceContention  M clients hammering a k-server FCFS resource
//   ChannelPingPong     two processes bouncing a token over two channels
//   ChannelStream       producer streaming value bursts to a consumer
//   TaskGroupFanout     repeated fork/join over F child tasks
//
// The pure dispatch shapes (TimerChurn, ZeroDelayPingPong) report items/sec
// where one item is one dispatched scheduler event.  The
// blocking-primitive shapes (ResourceContention, ChannelPingPong,
// ChannelStream, TaskGroupFanout) report items/sec where one item is one
// completed *operation* (acquisition / message / join) — the unit that is
// invariant across kernel rewrites.  The frameless-awaiter kernel
// deliberately dispatches fewer calendar events per operation than the
// PR 1 kernel did, so an event-based rate would hide exactly the
// improvement these shapes exist to measure; the `events_per_op` counter
// reports the accounting change explicitly.
//
//   PDBLB_BENCH_FAST=1   shrink the event counts (CI smoke runs)
//
// Writing the JSON trajectory file:
//   bench_simkern --benchmark_out=BENCH_simkern.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "simkern/channel.h"
#include "simkern/resource.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"
#include "simkern/task_group.h"

namespace pdblb::sim {
namespace {

bool FastMode() {
  const char* env = std::getenv("PDBLB_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

int64_t EventTarget() { return FastMode() ? 200'000 : 2'000'000; }

// --- TimerChurn -----------------------------------------------------------
// N concurrent processes, each sleeping a distinct prime-ish delay so the
// calendar stays well mixed (no degenerate same-timestamp batches).

Task<> TimerLoop(Scheduler& sched, SimTime period, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await sched.Delay(period);
  }
}

void BM_TimerChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int64_t rounds = EventTarget() / n;
  uint64_t events = 0;
  for (auto _ : state) {
    Scheduler sched;
    for (int i = 0; i < n; ++i) {
      sched.Spawn(TimerLoop(sched, 1.0 + 0.013 * i, rounds));
    }
    uint64_t before = sched.events_processed();
    sched.Run();
    events += sched.events_processed() - before;
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_TimerChurn)->Arg(16)->Arg(1024)->Unit(benchmark::kMillisecond);

// --- ZeroDelayPingPong ----------------------------------------------------
// Delay(0) re-queues through the calendar at the current timestamp (FIFO
// fairness), the pattern of latch wake-ups and channel hand-offs.

Task<> ZeroDelayLoop(Scheduler& sched, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await sched.Delay(0.0);
  }
}

void BM_ZeroDelayPingPong(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int64_t rounds = EventTarget() / n;
  uint64_t events = 0;
  for (auto _ : state) {
    Scheduler sched;
    for (int i = 0; i < n; ++i) sched.Spawn(ZeroDelayLoop(sched, rounds));
    uint64_t before = sched.events_processed();
    sched.Run();
    events += sched.events_processed() - before;
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_ZeroDelayPingPong)->Arg(8)->Unit(benchmark::kMillisecond);

// --- ResourceContention ---------------------------------------------------
// M clients against a k-server FCFS station: acquire, hold, release, repeat.
// Dominated by suspend/resume through the calendar plus waiter hand-off.

Task<> ResourceClient(Scheduler& sched, Resource& res, SimTime hold,
                      int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await res.Use(hold);
  }
  (void)sched;
}

void BM_ResourceContention(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int64_t rounds = EventTarget() / (4 * clients);
  uint64_t events = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    Scheduler sched;
    Resource res(sched, /*servers=*/4, "cpu");
    for (int i = 0; i < clients; ++i) {
      sched.Spawn(ResourceClient(sched, res, 0.5 + 0.01 * i, rounds));
    }
    uint64_t before = sched.events_processed();
    sched.Run();
    events += sched.events_processed() - before;
    ops += static_cast<uint64_t>(clients) * static_cast<uint64_t>(rounds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["events_per_op"] =
      static_cast<double>(events) / static_cast<double>(ops);
}
BENCHMARK(BM_ResourceContention)->Arg(64)->Unit(benchmark::kMillisecond);

// --- ChannelPingPong ------------------------------------------------------
// Two processes bouncing a token across a pair of channels: every message
// is a blocked-receiver hand-off, the pattern of operator pipelines with a
// faster producer than consumer.  One item = one delivered message.

Task<> Pinger(Channel<int>& out, Channel<int>& in, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    out.Send(static_cast<int>(i));
    co_await in.Receive();
  }
  out.Close();
}

Task<> Ponger(Channel<int>& in, Channel<int>& out) {
  while (auto v = co_await in.Receive()) {
    out.Send(*v);
  }
}

void BM_ChannelPingPong(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  const int64_t rounds = EventTarget() / (4 * pairs);
  uint64_t events = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    Scheduler sched;
    std::vector<std::unique_ptr<Channel<int>>> forward, backward;
    for (int i = 0; i < pairs; ++i) {
      forward.push_back(std::make_unique<Channel<int>>(sched));
      backward.push_back(std::make_unique<Channel<int>>(sched));
      sched.Spawn(Pinger(*forward[i], *backward[i], rounds));
      sched.Spawn(Ponger(*forward[i], *backward[i]));
    }
    uint64_t before = sched.events_processed();
    sched.Run();
    events += sched.events_processed() - before;
    ops += 2 * static_cast<uint64_t>(pairs) * static_cast<uint64_t>(rounds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["events_per_op"] =
      static_cast<double>(events) / static_cast<double>(ops);
}
BENCHMARK(BM_ChannelPingPong)->Arg(8)->Unit(benchmark::kMillisecond);

// --- ChannelStream --------------------------------------------------------
// A producer emits bursts of values separated by a unit delay; the consumer
// drains them.  Mixes buffered values (ring-buffer path) with blocked-
// receiver wake-ups.  One item = one delivered message.

Task<> BurstProducer(Scheduler& sched, Channel<int>& ch, int64_t bursts,
                     int burst_size) {
  for (int64_t i = 0; i < bursts; ++i) {
    co_await sched.Delay(1.0);
    for (int k = 0; k < burst_size; ++k) ch.Send(k);
  }
  ch.Close();
}

Task<> Drain(Channel<int>& ch, uint64_t* received) {
  while (auto v = co_await ch.Receive()) {
    ++*received;
  }
}

void BM_ChannelStream(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  const int64_t bursts = EventTarget() / (2 * burst);
  uint64_t events = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    Scheduler sched;
    Channel<int> ch(sched);
    uint64_t received = 0;
    sched.Spawn(Drain(ch, &received));
    sched.Spawn(BurstProducer(sched, ch, bursts, burst));
    uint64_t before = sched.events_processed();
    sched.Run();
    events += sched.events_processed() - before;
    ops += received;
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["events_per_op"] =
      static_cast<double>(events) / static_cast<double>(ops);
}
BENCHMARK(BM_ChannelStream)->Arg(8)->Unit(benchmark::kMillisecond);

// --- TaskGroupFanout ------------------------------------------------------
// Fork/join: a parent repeatedly spawns F one-delay children into a
// TaskGroup and waits for them (the fan-out the scan and join executors
// use).

Task<> FanoutParent(Scheduler& sched, int fanout, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    TaskGroup group(sched);
    for (int f = 0; f < fanout; ++f) {
      group.Spawn(TimerLoop(sched, 1.0 + 0.01 * f, 1));
    }
    co_await group.Wait();
  }
}

void BM_TaskGroupFanout(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  const int64_t rounds = EventTarget() / (3 * fanout);
  uint64_t events = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    Scheduler sched;
    sched.Spawn(FanoutParent(sched, fanout, rounds));
    uint64_t before = sched.events_processed();
    sched.Run();
    events += sched.events_processed() - before;
    ops += static_cast<uint64_t>(fanout) * static_cast<uint64_t>(rounds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["events_per_op"] =
      static_cast<double>(events) / static_cast<double>(ops);
}
BENCHMARK(BM_TaskGroupFanout)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdblb::sim

BENCHMARK_MAIN();
