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

/// Multi-producer / single-consumer unbounded channel.
///
/// `Send` never blocks.  `Receive` suspends until a value is available and
/// returns std::nullopt once the channel is closed and drained.  One
/// process consumes a channel (each join processor drains its own); a
/// second Receive while the consumer is suspended asserts.
///
/// The consumer suspends only on an empty, open channel, so the first Send
/// or the Close after that is what wakes it, and nothing can take the
/// value before it resumes.  A Send wakes it through the scheduler's
/// hand-off lane (Scheduler::HandOff): no calendar event, no sequence
/// number, no allocation — it resumes at the same timestamp as soon as the
/// producer suspends, so a producer emitting a burst of values still lets
/// the consumer drain the whole burst in one resumption.  Close() wakes it
/// through the calendar instead, keeping its FIFO position relative to
/// other same-time events.
///
/// The value queue is a recycled ring buffer with a small inline capacity,
/// so a per-query channel whose queue stays short never allocates at all.
template <typename T>
class Channel {
 public:
  /// `tag` attributes this channel's *calendar* wake-up (the Close) in
  /// event traces.  Send hand-offs always record as channel/0: the
  /// hand-off lane is statically attributed (see Scheduler::HandOff), so a
  /// per-channel origin is only visible on close wakes.
  explicit Channel(Scheduler& sched,
                   TraceTag tag = TraceTag(TraceSubsystem::kChannel))
      : sched_(sched), tag_(tag) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues a value; wakes the consumer through the hand-off lane if it
  /// is waiting.
  void Send(T value) {
    assert(!closed_ && "Send on closed channel");
    values_.push_back(std::move(value));
    if (consumer_ && values_.size() == 1) sched_.HandOff(consumer_);
  }

  /// Marks the channel closed: the consumer gets nullopt once the queue
  /// drains.  Idempotent.
  void Close() {
    if (closed_) return;
    closed_ = true;
    if (consumer_ && values_.empty()) {
      sched_.ScheduleAfter(0.0, consumer_, tag_);
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
      // Set while suspended; the destructor undoes the wait when the frame
      // is destroyed mid-suspension (Scheduler::Cancel cascade).
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() const noexcept {
        assert(!ch->consumer_ && "a second consumer on a single-consumer "
                                 "channel");
        return ch->Ready();
      }
      void await_suspend(std::coroutine_handle<> h) {
        pending = h;
        ch->consumer_ = h;
      }
      ~Awaiter() {
        if (!pending || sched->tearing_down()) return;
        // Already woken (a Send or the Close made the channel ready):
        // scrub the wake.  The value stays queued.
        if (ch->Ready()) sched->CancelHandle(pending);
        ch->consumer_ = nullptr;
      }
      std::optional<T> await_resume() {
        pending = nullptr;
        ch->consumer_ = nullptr;
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
  // A Receive completes without suspending; a suspended consumer has been
  // woken.
  bool Ready() const { return !values_.empty() || closed_; }

  Scheduler& sched_;
  TraceTag tag_;
  RingBuffer<T, 4> values_;
  std::coroutine_handle<> consumer_ = nullptr;  // suspended in Receive
  bool closed_ = false;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_CHANNEL_H_
