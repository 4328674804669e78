// Copyright 2026 the pdblb authors. MIT license.
//
// Unbounded FIFO channel for message passing between simulation processes
// (e.g. tuples batches streaming from scan operators to join operators).

#ifndef PDBLB_SIMKERN_CHANNEL_H_
#define PDBLB_SIMKERN_CHANNEL_H_

#include <cassert>
#include <coroutine>
#include <optional>

#include "simkern/ring.h"
#include "simkern/scheduler.h"

namespace pdblb::sim {

/// Multi-producer / multi-consumer unbounded channel.
///
/// `Send` never blocks.  `Receive` suspends until a value is available and
/// returns std::nullopt once the channel is closed and drained.
///
/// A consumer blocked in Receive() when a value arrives is woken through
/// the scheduler's hand-off lane (Scheduler::HandOff): no calendar event,
/// no sequence number, no allocation — it resumes at the same timestamp as
/// soon as the producer suspends, so a producer emitting a burst of values
/// still lets the consumer drain the whole burst in one resumption.
/// `pending_wakeups_` counts consumers already woken (by hand-off or by
/// Close): a value may be claimed synchronously in await_ready only when it
/// is not already promised to one of them, which keeps wake-ups exact and
/// starvation-free.  Close() broadcasts through the calendar instead — its
/// waiters keep their FIFO positions relative to other same-time events.
/// Once the channel is closed a receiver never suspends: either an
/// unpromised value is available, or every remaining value belongs to an
/// already-woken consumer and the receiver observes the close (returns
/// nullopt) immediately — nobody is left to wake it later.
///
/// Both the value queue and the waiter queue are recycled ring buffers with
/// a small inline capacity, so a per-query channel whose queues stay short
/// never allocates at all.
template <typename T>
class Channel {
 public:
  /// `tag` attributes this channel's *calendar* wake-ups (the Close
  /// broadcast) in event traces.  Send hand-offs always record as
  /// channel/0: the hand-off lane is statically attributed (see
  /// Scheduler::HandOff), so a per-channel origin is only visible on
  /// close wakes.
  explicit Channel(Scheduler& sched,
                   TraceTag tag = TraceTag(TraceSubsystem::kChannel))
      : sched_(sched), tag_(tag) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues a value; wakes one waiting consumer (if any) through the
  /// hand-off lane.
  void Send(T value) {
    assert(!closed_ && "Send on closed channel");
    values_.push_back(std::move(value));
    if (!waiters_.empty()) {
      sched_.HandOff(waiters_.front());
      waiters_.pop_front();
      ++pending_wakeups_;
    }
  }

  /// Marks the channel closed: waiting and future receivers get nullopt once
  /// the queue drains.  Idempotent.
  void Close() {
    if (closed_) return;
    closed_ = true;
    // Wake everyone; those that find no value observe the close.
    while (!waiters_.empty()) {
      sched_.ScheduleHandle(sched_.Now(), waiters_.front(), tag_);
      waiters_.pop_front();
      ++pending_wakeups_;
    }
  }

  bool closed() const { return closed_; }
  size_t size() const { return values_.size(); }

  /// Awaitable returning std::optional<T>.
  auto Receive() {
    struct Awaiter {
      Channel* ch;
      // Stored directly (not reached through `ch`): at scheduler teardown
      // the channel may already be destroyed, and the teardown check must
      // not touch it.
      Scheduler* sched;
      bool suspended = false;
      // Set while suspended; the destructor undoes the wait when the frame
      // is destroyed mid-suspension (Scheduler::Cancel cascade).
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() const noexcept {
        // A value may be claimed synchronously only if no in-flight wakeup
        // is counting on it; otherwise a woken consumer would starve.
        if (ch->values_.size() >
            static_cast<size_t>(ch->pending_wakeups_)) {
          return true;
        }
        // A closed channel never suspends a receiver: with every remaining
        // value promised to an already-woken consumer there is no future
        // Send or Close left to wake it — it would hang forever.  The
        // resume path below turns this case into an immediate nullopt.
        return ch->closed_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        suspended = true;
        pending = h;
        ch->waiters_.push_back(h);
      }
      ~Awaiter() {
        if (!pending || sched->tearing_down()) return;
        // Still queued: just leave.  Already woken (hand-off or Close
        // broadcast): scrub the wake and give the promise back — the value
        // reserved for us becomes claimable by other receivers again.
        if (ch->waiters_.EraseLastIf(
                [&](std::coroutine_handle<> w) { return w == pending; })) {
          return;
        }
        sched->CancelHandle(pending);
        assert(ch->pending_wakeups_ > 0);
        --ch->pending_wakeups_;
      }
      std::optional<T> await_resume() {
        pending = nullptr;
        if (suspended) {
          assert(ch->pending_wakeups_ > 0);
          --ch->pending_wakeups_;
        } else if (ch->values_.size() <=
                   static_cast<size_t>(ch->pending_wakeups_)) {
          // Synchronous resume on a closed channel whose remaining values
          // are all promised to woken consumers: observe the close.
          assert(ch->closed_);
          return std::nullopt;
        }
        if (ch->values_.empty()) {
          assert(ch->closed_);
          return std::nullopt;
        }
        T v = std::move(ch->values_.front());
        ch->values_.pop_front();
        return v;
      }
    };
    return Awaiter{this, &sched_};
  }

 private:
  Scheduler& sched_;
  TraceTag tag_;
  RingBuffer<T, 4> values_;
  RingBuffer<std::coroutine_handle<>, 4> waiters_;
  int pending_wakeups_ = 0;
  bool closed_ = false;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_CHANNEL_H_
