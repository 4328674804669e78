// Copyright 2026 the pdblb authors. MIT license.
//
// RunAt(sched, t, fn): makes something happen at simulated time `t` in a
// test.  It spawns a small process that waits until absolute time `t`
// (>= Now()) and then calls `fn`.
//
// The process takes its place among the events at `t` when it first runs:
// at the current time, after every process spawned before it has started.
// A test that needs `fn` to run ahead of other processes waking at `t`
// calls RunAt before spawning them.

#ifndef PDBLB_TESTS_RUN_AT_H_
#define PDBLB_TESTS_RUN_AT_H_

#include <utility>

#include "common/units.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb::sim {

template <typename Fn>
Task<> CallAt(Scheduler& sched, SimTime at, Fn fn) {
  co_await sched.Delay(at - sched.Now());
  fn();
}

template <typename Fn>
void RunAt(Scheduler& sched, SimTime at, Fn fn) {
  sched.Spawn(CallAt(sched, at, std::move(fn)));
}

}  // namespace pdblb::sim

#endif  // PDBLB_TESTS_RUN_AT_H_
