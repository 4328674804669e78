// Copyright 2026 the pdblb authors. MIT license.
//
// Seeded randomized kernel stress: N worker processes hammer M resources
// and C channels with randomized service times, per-worker priorities,
// early cancellations and a mid-run Scheduler::CancelAll.  Every run
// records a full trace of (timestamp, worker, action) steps; the same seed
// must reproduce the trace, the kernel counters and the resource
// statistics bit-identically, and a different seed must diverge.  This
// catches the FIFO/ordering regressions the unit tests are too small to
// see — in particular around the frameless Resource::Use hand-off, the
// scheduler's hand-off lane and the ring-buffer waiter queues.  A last test
// checks the calendar's dispatch order against an independent model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "simkern/channel.h"
#include "simkern/resource.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"
#include "simkern/task_group.h"

namespace pdblb::sim {
namespace {

struct TraceEntry {
  SimTime at;
  int worker;
  int action;
  int64_t detail;

  bool operator==(const TraceEntry& o) const {
    // Bit-identical, not approximately equal: the determinism contract is
    // exact reproduction of the event sequence.
    return at == o.at && worker == o.worker && action == o.action &&
           detail == o.detail;
  }
};

enum Action {
  kUse = 0,
  kAcquireRelease = 1,
  kSend = 2,
  kReceived = 3,
  kYield = 4,
  kForkJoin = 5,
  kCancelled = 6,
  kDone = 7,
};

struct StressResult {
  std::vector<TraceEntry> trace;
  uint64_t events = 0;
  uint64_t handoffs = 0;
  std::vector<uint64_t> completed;      // per resource
  std::vector<double> busy_integral;    // per resource
  std::vector<size_t> max_queue;        // per resource
  uint64_t received_total = 0;
  size_t in_flight_after = 0;  // detached processes left at the end
  size_t pending_after = 0;    // calendar entries left at the end
};

struct World {
  Scheduler sched;
  std::vector<std::unique_ptr<Resource>> resources;
  std::vector<std::unique_ptr<Channel<int64_t>>> channels;
  std::vector<TraceEntry>* trace;
  uint64_t received_total = 0;
};

Task<> ForkChild(World& w, SimTime delay) { co_await w.sched.Delay(delay); }

// One worker: `rounds` random operations drawn from the worker's own RNG
// stream.  `priority` (1..4) scales service demand, so high-priority
// workers hold servers longer and reshape every queue they touch.
Task<> Worker(World& w, int id, Rng rng, int rounds, int priority) {
  for (int r = 0; r < rounds; ++r) {
    // Random cancellation: the worker gives up mid-sequence (between
    // operations — the kernel intentionally has no way to abandon a
    // suspended waiter, so cancellation happens at operation granularity).
    if (rng.Uniform() < 0.02) {
      w.trace->push_back({w.sched.Now(), id, kCancelled, r});
      co_return;
    }
    const double pick = rng.Uniform();
    if (pick < 0.35) {
      const size_t res = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(w.resources.size()) - 1));
      co_await w.resources[res]->Use(0.25 * priority + 2.0 * rng.Uniform());
      w.trace->push_back(
          {w.sched.Now(), id, kUse, static_cast<int64_t>(res)});
    } else if (pick < 0.5) {
      const size_t res = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(w.resources.size()) - 1));
      co_await w.resources[res]->Acquire();
      co_await w.sched.Delay(0.1 * priority + rng.Uniform());
      w.resources[res]->Release();
      w.trace->push_back(
          {w.sched.Now(), id, kAcquireRelease, static_cast<int64_t>(res)});
    } else if (pick < 0.7) {
      const size_t ch = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(w.channels.size()) - 1));
      w.channels[ch]->Send(static_cast<int64_t>(id) * 1000 + r);
      w.trace->push_back(
          {w.sched.Now(), id, kSend, static_cast<int64_t>(ch)});
      co_await w.sched.Delay(rng.Exponential(1.5));
    } else if (pick < 0.85) {
      co_await w.sched.Delay(0.0);
      w.trace->push_back({w.sched.Now(), id, kYield, r});
    } else {
      // Fork/join through a task group: children with randomized delays.
      const int fanout = 1 + static_cast<int>(rng.UniformInt(0, 3));
      TaskGroup group(w.sched);
      for (int f = 0; f < fanout; ++f) {
        group.Spawn(ForkChild(w, rng.Uniform() * 2.0));
      }
      co_await group.Wait();
      w.trace->push_back({w.sched.Now(), id, kForkJoin, fanout});
    }
  }
  w.trace->push_back({w.sched.Now(), id, kDone, rounds});
}

// Drains one channel until it closes; traces every delivery.
Task<> ChannelDrainer(World& w, int id, size_t ch) {
  while (auto v = co_await w.channels[ch]->Receive()) {
    ++w.received_total;
    w.trace->push_back({w.sched.Now(), id, kReceived, *v});
  }
}

Task<> Supervise(World& w, uint64_t seed, int workers, int rounds) {
  Rng root(seed);
  TaskGroup drainers(w.sched);
  for (size_t c = 0; c < w.channels.size(); ++c) {
    drainers.Spawn(
        ChannelDrainer(w, -1 - static_cast<int>(c), c));
  }
  {
    TaskGroup workers_group(w.sched);
    for (int i = 0; i < workers; ++i) {
      const int priority = 1 + static_cast<int>(root.UniformInt(0, 3));
      workers_group.Spawn(
          Worker(w, i, root.Fork(static_cast<uint64_t>(i) + 1), rounds,
                 priority));
    }
    co_await workers_group.Wait();
  }
  // All producers are done: close the channels so the drainers finish and
  // no coroutine is left suspended at scheduler teardown.
  for (auto& ch : w.channels) ch->Close();
  co_await drainers.Wait();
}

StressResult RunStress(uint64_t seed, int workers, int resources,
                       int channels, int rounds, SimTime cancel_at) {
  StressResult result;
  World w;
  w.trace = &result.trace;
  Rng shape_rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < resources; ++i) {
    w.resources.push_back(std::make_unique<Resource>(
        w.sched, 1 + static_cast<int>(shape_rng.UniformInt(0, 3))));
  }
  for (int i = 0; i < channels; ++i) {
    w.channels.push_back(std::make_unique<Channel<int64_t>>(w.sched));
  }
  w.sched.Spawn(Supervise(w, seed, workers, rounds));
  if (cancel_at > 0.0) {
    w.sched.RunUntil(cancel_at);
    w.sched.CancelAll();
  } else {
    w.sched.Run();
  }

  result.events = w.sched.events_processed();
  result.handoffs = w.sched.inline_resumes();
  for (auto& r : w.resources) {
    result.completed.push_back(r->completed());
    result.busy_integral.push_back(r->BusyIntegral());
    result.max_queue.push_back(r->max_queue_length());
  }
  result.received_total = w.received_total;
  result.in_flight_after = w.sched.detached_in_flight();
  result.pending_after = w.sched.pending_events();
  return result;
}

void ExpectIdentical(const StressResult& a, const StressResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_TRUE(a.trace[i] == b.trace[i])
        << "trace diverges at step " << i << ": (" << a.trace[i].at << ", w"
        << a.trace[i].worker << ", a" << a.trace[i].action << ", "
        << a.trace[i].detail << ") vs (" << b.trace[i].at << ", w"
        << b.trace[i].worker << ", a" << b.trace[i].action << ", "
        << b.trace[i].detail << ")";
  }
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.max_queue, b.max_queue);
  ASSERT_EQ(a.busy_integral.size(), b.busy_integral.size());
  for (size_t i = 0; i < a.busy_integral.size(); ++i) {
    // Bit-identical, not EXPECT_NEAR: same event order => same fp op order.
    EXPECT_EQ(a.busy_integral[i], b.busy_integral[i]) << "resource " << i;
  }
  EXPECT_EQ(a.received_total, b.received_total);
  EXPECT_EQ(a.in_flight_after, 0u);
  EXPECT_EQ(a.pending_after, 0u);
  EXPECT_EQ(b.in_flight_after, 0u);
  EXPECT_EQ(b.pending_after, 0u);
}

TEST(SimkernStressTest, SameSeedIsBitIdentical) {
  StressResult a = RunStress(/*seed=*/1234, /*workers=*/32, /*resources=*/6,
                             /*channels=*/3, /*rounds=*/120,
                             /*cancel_at=*/0.0);
  StressResult b = RunStress(1234, 32, 6, 3, 120, 0.0);
  ASSERT_GT(a.trace.size(), 1000u);
  ASSERT_GT(a.handoffs, 0u);
  ExpectIdentical(a, b);
}

TEST(SimkernStressTest, SameSeedIsBitIdenticalUnderMidRunShutdown) {
  // RunUntil + CancelAll exercises the boundary paths: every worker, child
  // and drainer still in flight at 60 ms is unwound wherever it waits, and
  // the resources' counters and busy integrals must still replay exactly.
  StressResult a = RunStress(/*seed=*/99, /*workers=*/24, /*resources=*/4,
                             /*channels=*/2, /*rounds=*/200,
                             /*cancel_at=*/60.0);
  StressResult b = RunStress(99, 24, 4, 2, 200, 60.0);
  ASSERT_GT(a.trace.size(), 500u);
  int ended = 0;  // workers that finished or gave up before 60 ms
  for (const TraceEntry& e : a.trace) {
    EXPECT_LE(e.at, 60.0) << "a step ran after CancelAll";
    ended += e.action == kDone || e.action == kCancelled;
  }
  EXPECT_LT(ended, 24) << "CancelAll at 60 ms cut no worker short";
  ExpectIdentical(a, b);
}

TEST(SimkernStressTest, DifferentSeedsDiverge) {
  StressResult a = RunStress(7, 16, 4, 2, 60, 0.0);
  StressResult b = RunStress(8, 16, 4, 2, 60, 0.0);
  EXPECT_NE(a.trace, b.trace);
}

// FCFS regression guards: the frameless Use path and the Acquire path
// share one waiter queue; grants must stay strictly first-come-first-
// served regardless of which flavor each waiter used.
Task<> TraceUse(World& w, int id, Resource& res, SimTime service) {
  co_await res.Use(service);
  w.trace->push_back({w.sched.Now(), id, kUse, 0});
}

Task<> TraceAcquire(World& w, int id, Resource& res, SimTime service) {
  co_await res.Acquire();
  co_await w.sched.Delay(service);
  res.Release();
  w.trace->push_back({w.sched.Now(), id, kAcquireRelease, 0});
}

TEST(SimkernStressTest, MixedUseAndAcquireWaitersStayFcfs) {
  World w;
  std::vector<TraceEntry> trace;
  w.trace = &trace;
  Resource res(w.sched, 1);
  // Alternate the two acquisition flavors; distinct service times make any
  // reordering visible in the completion sequence.
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      w.sched.Spawn(TraceUse(w, i, res, 1.0 + 0.1 * i));
    } else {
      w.sched.Spawn(TraceAcquire(w, i, res, 1.0 + 0.1 * i));
    }
  }
  w.sched.Run();
  ASSERT_EQ(trace.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(trace[static_cast<size_t>(i)].worker, i)
        << "completion order must equal arrival order (FCFS)";
  }
  EXPECT_EQ(res.completed(), 10u);
  EXPECT_EQ(res.max_queue_length(), 9u);
}

// --------------------------------------------------- reference dispatch order
//
// The tests above compare a run with its rerun, so an ordering bug that
// repeats the same way every run passes them.  This one checks the
// calendar against an independent model: pending wake-ups in a std::set
// keyed by (time, schedule counter), where the counter steps once per spawn
// and once per delay and never on a cancel.

constexpr int kModelProcs = 64;
constexpr int kModelWakes = 40;

// A run's pre-drawn script: each process's delay before each of its wakes,
// the process it cancels after that wake (-1: none), and the spacing of
// the RunUntil boundaries.  Zero and equal delays put ring and heap
// entries at one timestamp.
struct WakeScript {
  std::vector<std::vector<SimTime>> delay;
  std::vector<std::vector<int>> cancel;
  SimTime until_step = 3.7;
};

// Draws each wake's delay with `draw_delay` and cancels another process
// after one wake in `cancel_one_in`.
template <typename DrawDelay>
WakeScript DrawScript(uint64_t seed, int cancel_one_in, DrawDelay draw_delay) {
  Rng rng(seed);
  WakeScript script;
  script.delay.assign(kModelProcs, std::vector<SimTime>(kModelWakes));
  script.cancel.assign(kModelProcs, std::vector<int>(kModelWakes, -1));
  for (int id = 0; id < kModelProcs; ++id) {
    for (int wake = 0; wake < kModelWakes; ++wake) {
      script.delay[id][wake] = draw_delay(rng);
      if (rng.UniformInt(0, cancel_one_in - 1) == 0) {
        int target = static_cast<int>(rng.UniformInt(0, kModelProcs - 2));
        script.cancel[id][wake] = target >= id ? target + 1 : target;
      }
    }
  }
  return script;
}

WakeScript DrawWakeScript(uint64_t seed) {
  static constexpr SimTime kDelays[] = {0.0, 0.5, 1.0, 1.0, 2.5};
  return DrawScript(seed, 64, [](Rng& rng) {
    return kDelays[rng.UniformInt(0, 4)];
  });
}

// A script for the delay lanes.  Half the wakes draw one of four hot
// delays, so those lanes hold long tails, and the rest draw from 120 cold
// delays, more than the calendar has lanes, so lanes are re-keyed and
// delays collide in their lane sets; a few are zero (the ring).  Every
// delay is a multiple of 1/8, so wake times are exact and the RunUntil
// boundaries, at multiples of 3.75, fall on lane entries.  One wake in
// eight cancels a random process, which waits at a lane head, in a lane
// tail, in the heap on its own or in the ring.
WakeScript DrawLaneScript(uint64_t seed) {
  static constexpr SimTime kHot[] = {0.25, 0.5, 0.75, 1.25};
  WakeScript script = DrawScript(seed, 8, [](Rng& rng) {
    const int64_t pick = rng.UniformInt(0, 127);
    if (pick < 64) return kHot[pick % 4];
    if (pick < 68) return 0.0;
    return 0.125 * static_cast<SimTime>(rng.UniformInt(1, 120));
  });
  script.until_step = 3.75;
  return script;
}

struct WakeLog {
  SimTime at;
  int id;
  int wake;
  bool operator==(const WakeLog&) const = default;
};

struct WakeRun {
  std::vector<WakeLog> log;
  uint64_t dispatches = 0;
  size_t peak_lane_events = 0;  // set by the calendar run only
};

struct CalendarWorld {
  Scheduler sched;
  const WakeScript* script;
  std::vector<uint64_t> spawn_ids;
  std::vector<WakeLog> log;
  size_t peak_lane_events = 0;
};

Task<> Waker(CalendarWorld& w, int id) {
  for (int wake = 0; wake < kModelWakes; ++wake) {
    co_await w.sched.Delay(w.script->delay[id][wake]);
    w.log.push_back({w.sched.Now(), id, wake});
    w.peak_lane_events =
        std::max(w.peak_lane_events, w.sched.lane_events());
    const int target = w.script->cancel[id][wake];
    if (target >= 0) w.sched.Cancel(w.spawn_ids[target]);  // no-op if gone
  }
}

WakeRun RunCalendar(const WakeScript& script) {
  CalendarWorld w;
  w.script = &script;
  for (int id = 0; id < kModelProcs; ++id) {
    w.spawn_ids.push_back(w.sched.SpawnWithId(Waker(w, id)));
  }
  for (int step = 1; step <= 8; ++step) {
    w.sched.RunUntil(script.until_step * step);
  }
  w.sched.Run();
  return {std::move(w.log), w.sched.events_processed(), w.peak_lane_events};
}

WakeRun RunModel(const WakeScript& script) {
  using Entry = std::tuple<SimTime, uint64_t, int>;  // (time, counter, id)
  std::set<Entry> pending;
  std::vector<Entry> entry_of(kModelProcs);
  std::vector<int> next_wake(kModelProcs, -1);  // -1: not started yet
  std::vector<bool> alive(kModelProcs, true);
  uint64_t counter = 0;
  auto schedule = [&](SimTime at, int id) {
    entry_of[id] = {at, counter++, id};
    pending.insert(entry_of[id]);
  };
  for (int id = 0; id < kModelProcs; ++id) schedule(0.0, id);
  WakeRun run;
  while (!pending.empty()) {
    const auto [now, seq, id] = *pending.begin();
    pending.erase(pending.begin());
    ++run.dispatches;
    int wake = next_wake[id];
    if (wake >= 0) {
      run.log.push_back({now, id, wake});
      const int target = script.cancel[id][wake];
      if (target >= 0 && alive[target]) {
        alive[target] = false;
        pending.erase(entry_of[target]);
      }
    }
    next_wake[id] = ++wake;
    if (wake < kModelWakes) {
      schedule(now + script.delay[id][wake], id);
    } else {
      alive[id] = false;
    }
  }
  return run;
}

void ExpectCalendarMatchesModel(const WakeScript& script) {
  const WakeRun model = RunModel(script);
  const WakeRun calendar = RunCalendar(script);
  // Cancels cut some processes short.
  ASSERT_LT(model.log.size(), size_t{kModelProcs} * kModelWakes);
  ASSERT_EQ(calendar.log.size(), model.log.size());
  for (size_t i = 0; i < model.log.size(); ++i) {
    ASSERT_TRUE(calendar.log[i] == model.log[i])
        << "order diverges at step " << i << ": (" << calendar.log[i].at
        << ", p" << calendar.log[i].id << ", w" << calendar.log[i].wake
        << ") vs model (" << model.log[i].at << ", p" << model.log[i].id
        << ", w" << model.log[i].wake << ")";
  }
  EXPECT_EQ(calendar.dispatches, model.dispatches);
}

TEST(SchedulerModelTest, DispatchOrderMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    ExpectCalendarMatchesModel(DrawWakeScript(seed));
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("lane script, seed " + std::to_string(seed));
    const WakeScript script = DrawLaneScript(seed);
    ExpectCalendarMatchesModel(script);
    // The hot delays' lanes hold tails, so the script runs through them.
    EXPECT_GT(RunCalendar(script).peak_lane_events, 8u);
  }
}

}  // namespace
}  // namespace pdblb::sim
