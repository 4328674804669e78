// Copyright 2026 the pdblb authors. MIT license.
//
// Deadline / timeout wrapper over Scheduler::Cancel: run a task with an
// upper bound on simulated time, destroying its frame (and everything it
// owns — cancellation-aware awaiters release queue entries and resources)
// if the bound expires first.
//
//   bool completed = co_await WithTimeout(sched, DoWork(...), 250.0);
//
// Determinism: the timer is an ordinary calendar event, so whether a given
// run times out — and the exact event at which the cancellation happens —
// is a pure function of the seed and configuration, identical across
// --jobs and reruns.

#ifndef PDBLB_SIMKERN_DEADLINE_H_
#define PDBLB_SIMKERN_DEADLINE_H_

#include <cstdint>
#include <utility>

#include "common/units.h"
#include "simkern/latch.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb::sim {

namespace internal {

struct DeadlineState {
  Latch done;
  bool completed = false;
  uint64_t work_id = 0;
  explicit DeadlineState(Scheduler& sched) : done(sched, 1) {}
};

inline Task<> RunDeadlined(Task<> work, DeadlineState* st) {
  co_await std::move(work);
  st->completed = true;
  st->done.CountDown();
}

inline Task<> DeadlineTimer(Scheduler& sched, SimTime timeout_ms,
                            DeadlineState* st) {
  co_await sched.Delay(timeout_ms);
  // Work finishing and the timer firing at the same timestamp resolve by
  // calendar FIFO: whoever dispatches first wins, deterministically.
  if (st->done.Done()) co_return;
  sched.Cancel(st->work_id);
  st->done.CountDown();
}

}  // namespace internal

/// Runs `work` as a supervised child and completes when it finishes or when
/// `timeout_ms` of simulated time has passed, whichever comes first.  On
/// timeout the work frame is destroyed mid-suspension; returns true if the
/// work completed, false if it was cancelled at the deadline.  Safe to
/// cancel the WithTimeout frame itself: both children are cancelled with it.
inline Task<bool> WithTimeout(Scheduler& sched, Task<> work,
                              SimTime timeout_ms) {
  internal::DeadlineState st(sched);
  // Children are detached frames pointing into this frame; if this frame is
  // destroyed mid-wait they must go first.  Cancel of a finished id no-ops,
  // so the guard is unconditional.
  struct ChildGuard {
    Scheduler* sched;
    uint64_t id = 0;
    ~ChildGuard() {
      if (id != 0) sched->Cancel(id);
    }
  };
  ChildGuard work_guard{&sched};
  ChildGuard timer_guard{&sched};
  st.work_id = sched.SpawnWithId(internal::RunDeadlined(std::move(work), &st));
  work_guard.id = st.work_id;
  timer_guard.id =
      sched.SpawnWithId(internal::DeadlineTimer(sched, timeout_ms, &st));
  co_await st.done.Wait();
  co_return st.completed;
}

/// Convenience alias matching the issue-facing name: a Deadline is the
/// awaitable produced by WithTimeout.
using Deadline = Task<bool>;

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_DEADLINE_H_
