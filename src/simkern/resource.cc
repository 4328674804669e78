// Copyright 2026 the pdblb authors. MIT license.

#include "simkern/resource.h"

namespace pdblb::sim {

Resource::Resource(Scheduler& sched, int servers, std::string name,
                   TraceTag tag)
    : sched_(sched), name_(std::move(name)), tag_(tag), servers_(servers),
      free_(servers) {
  assert(servers >= 1);
  last_change_ = sched_.Now();
}

void Resource::AccumulateBusy() {
  SimTime now = sched_.Now();
  busy_integral_ += static_cast<double>(busy()) * (now - last_change_);
  last_change_ = now;
}

void Resource::Grant() {
  assert(free_ > 0);
  AccumulateBusy();
  --free_;
}

void Resource::Release() {
  AccumulateBusy();
  ++free_;
  assert(free_ <= servers_);
  ++completed_;
  if (!waiters_.empty()) {
    // Hand the freed server to the next waiter (still FCFS).  The grant is
    // performed inline — no intermediate grant wake-up event.  A Use()
    // waiter's service interval starts at this instant, so its single
    // calendar event is the resume at end of service; an Acquire() waiter
    // brackets its own service and wakes at the grant timestamp (through
    // the same-time ring, preserving calendar FIFO for admission queues).
    Waiter w = waiters_.front();
    waiters_.pop_front();
    Grant();
    sched_.ScheduleHandle(
        w.service < 0.0 ? sched_.Now() : sched_.Now() + w.service, w.handle,
        tag_);
  }
}

void Resource::CancelWaiter(std::coroutine_handle<> h) {
  if (waiters_.EraseLastIf(
          [&](const Waiter& w) { return w.handle == h; })) {
    return;  // never granted: nothing held, nobody to wake
  }
  // Not in the queue, so Release() already granted this waiter a server and
  // scheduled its wake-up: scrub the pending event and return the server —
  // which may grant the next waiter inline, exactly as a normal release.
  sched_.CancelHandle(h);
  Release();
}

double Resource::BusyIntegral() const {
  // Include the busy time accrued since the last state change.
  return busy_integral_ +
         static_cast<double>(busy()) * (sched_.Now() - last_change_);
}

void Resource::ResetStats() {
  completed_ = 0;
  max_queue_ = waiters_.size();
}

}  // namespace pdblb::sim
