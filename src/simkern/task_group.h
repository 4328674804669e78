// Copyright 2026 the pdblb authors. MIT license.
//
// TaskGroup: the kernel's one fork/join primitive.  Tasks can be added
// while others are already running (e.g. packet-send tasks spawned as a scan
// streams), and Wait() completes once the group is empty.  A member ends for
// its group whether it completes or is cancelled, so a supervisor of
// cancellable work spawns it into a group and waits on the group.

#ifndef PDBLB_SIMKERN_TASK_GROUP_H_
#define PDBLB_SIMKERN_TASK_GROUP_H_

#include <coroutine>

#include "simkern/ring.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb::sim {

/// A set of detached tasks with a joinable completion point.  A member is
/// its own frame: no wrapper coroutine awaits it, and the frame's
/// destruction (~PromiseBase) calls Finish(): after it completes, or when
/// Scheduler::Cancel or the group's destructor stops it mid-suspension.
/// Only ~Scheduler's teardown skips the report.
///
/// The group must outlive all tasks spawned into it: members are detached
/// frames whose registry entries point back to the group.  The usual
/// pattern — a coroutine creates a TaskGroup on its frame, spawns into it,
/// and `co_await group.Wait()` before the frame dies — guarantees this on
/// the normal path, and the destructor guarantees it on the cancellation
/// path by cancelling every still-active member (Scheduler::Cancel
/// cascade): destroying a frame that owns a TaskGroup with members in
/// flight is safe.
class TaskGroup {
 public:
  /// `tag` attributes the join wake-ups in event traces.
  explicit TaskGroup(Scheduler& sched,
                     TraceTag tag = TraceTag(TraceSubsystem::kTaskGroup))
      : sched_(sched), tag_(tag) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup() {
    // Cancellation path: the owning frame dies with members in flight.
    // Cancel every member still alive, in spawn order, so no member
    // outlives the group — or the state of the owning frame its work
    // referenced.  Each one ends for the group, which has no waiter left:
    // the owner's Wait() awaiter went first.
    if (active_ > 0) sched_.CancelOwned(this);
  }

  /// Starts `task` at the current simulation time as a member of the group
  /// and returns its spawn id, by which Scheduler::Cancel stops that member
  /// alone.  Members are found again through the scheduler's registry of
  /// in-flight processes (tagged with this group), so any fan-out spawns
  /// without an allocation beyond the members' own recycled frames.
  uint64_t Spawn(Task<> task) {
    ++active_;
    return sched_.SpawnOwned(std::move(task), this);
  }

  int active() const { return active_; }

  /// Completes when all spawned tasks have ended (completed or been
  /// cancelled).  Multiple waiters are allowed; an empty group completes
  /// immediately.
  auto Wait() {
    struct Awaiter {
      TaskGroup* group;
      // Stored directly (not reached through `group`): at scheduler
      // teardown the group may already be destroyed, and the teardown
      // check must not touch it.
      Scheduler* sched;
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() const noexcept { return group->active_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        pending = h;
        group->waiters_.push_back(h);
      }
      void await_resume() noexcept { pending = nullptr; }
      ~Awaiter() {
        if (!pending || sched->tearing_down()) return;
        if (group->waiters_.EraseLastIf(
                [&](std::coroutine_handle<> w) { return w == pending; })) {
          return;
        }
        sched->CancelHandle(pending);
      }
    };
    return Awaiter{this, &sched_};
  }

 private:
  friend void internal::FinishGroupMember(TaskGroup* group);

  void Finish() {
    if (--active_ == 0) {
      while (!waiters_.empty()) {
        sched_.ScheduleHandle(sched_.Now(), waiters_.front(), tag_);
        waiters_.pop_front();
      }
    }
  }

  Scheduler& sched_;
  TraceTag tag_;
  int active_ = 0;
  // Groups are constructed per query and typically have one waiter, which
  // the inline capacity absorbs without an allocation.
  RingBuffer<std::coroutine_handle<>, 4> waiters_;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_TASK_GROUP_H_
