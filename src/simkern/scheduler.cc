// Copyright 2026 the pdblb authors. MIT license.

#include "simkern/scheduler.h"

#include <algorithm>
#include <limits>

#include "simkern/task_group.h"

namespace pdblb::sim {

void internal::FinishGroupMember(TaskGroup* group) { group->Finish(); }

Scheduler::~Scheduler() {
  // Destroy every detached process still suspended (parked in a resource /
  // lock / admission queue, or waiting on a calendar event): the registry
  // holds exactly the Spawn'ed roots, and destroying a root destroys its
  // owned children recursively through the frames' Task locals.  Stale
  // frame addresses left in the calendar by destroyed frames are never
  // dispatched.  tearing_down_ tells cancellation-aware awaiter/guard
  // destructors to no-op: the resources and queues they would clean up may
  // already be gone (Cluster destroys its members before the scheduler),
  // and nothing here will run again anyway.  For the same reason a member
  // destroyed here does not report to its TaskGroup (DestroyAll).
  tearing_down_ = true;
  detached_.DestroyAll();
}

void Scheduler::CancelAll() {
  // Newest first.  A TaskGroup member is younger than the frame that owns
  // its group, so members are gone before their group's destructor would
  // scan the registry for them; and a queue's waiters, usually younger
  // than the holders, go before a holder's release could grant them a
  // server.  Repeats until the registry is empty, so anything spawned on
  // the way is cancelled too.
  detached_.SortBySpawnId();
  while (std::coroutine_handle<> h = detached_.Back()) {
    CancelHandle(h);
    h.destroy();
  }
  // Every frame is gone, and each one scrubbed the entry that would have
  // resumed it, so what is left can be dropped without a pop.
#ifndef NDEBUG
  for (const Event& e : heap_) assert(e.frame == nullptr);
  for (size_t i = 0; i < ring_.size(); ++i) assert(ring_[i].frame == nullptr);
  for (size_t i = 0; i < handoffs_.size(); ++i) assert(!handoffs_[i]);
#endif
  heap_.clear();
  root_free_ = false;
  ring_.clear();
  handoffs_.clear();
}

bool Scheduler::CancelHandle(std::coroutine_handle<> h) {
  assert(h);
  void* const frame = h.address();
  // A suspended frame has at most one pending entry across the three
  // structures, so stop at the first hit.  Calendar first: timer-style
  // waits (Delay) dominate the cancellation paths.  A free root's frame is
  // null, so it never matches.
  for (Event& e : heap_) {
    if (e.frame == frame) {
      e.frame = nullptr;
      return true;
    }
  }
  for (size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].frame == frame) {
      ring_[i].frame = nullptr;
      return true;
    }
  }
  for (size_t i = 0; i < handoffs_.size(); ++i) {
    if (handoffs_[i] == h) {
      handoffs_[i] = nullptr;
      return true;
    }
  }
  return false;
}

void Scheduler::SiftUp(size_t i) {
  Event e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) >> 1;
    if (!Precedes(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::SiftDown(const Event& e) {
  const size_t n = heap_.size();
  size_t hole = 0;
  size_t child = 1;
  while (child < n) {
    child += static_cast<size_t>(child + 1 < n &&
                                 Precedes(heap_[child + 1], heap_[child]));
    if (!Precedes(heap_[child], e)) break;
    heap_[hole] = heap_[child];
    hole = child;
    child = 2 * hole + 1;
  }
  heap_[hole] = e;
}

void Scheduler::HeapPop() {
  root_free_ = false;
  const size_t n = heap_.size() - 1;
  Event last = heap_[n];
  heap_.pop_back();
  if (n > 0) {
    // Bottom-up deletion of the free root (a hold fills it through SiftDown
    // instead): walk the hole from the root to a leaf, always promoting the
    // smaller child (branchless select), then bubble the former last leaf
    // up from there.  This removes the unpredictable early-exit test
    // against the relocated leaf at every level — the classic
    // __adjust_heap trick, applied to trivially-copyable 24-byte events.
    // (4-ary layouts, with and without branchless tournaments, measured
    // slower on bench_simkern; see the simkern README.)
    size_t hole = 0;
    size_t child = 1;
    while (child < n) {
      // The walk is a serial chain of data-dependent loads; pulling the
      // grandchildren's cache lines in early hides most of that latency.
      size_t grandchild = 4 * child + 3;
      if (grandchild + 4 < n) {
        const Event* base = heap_.data();
        __builtin_prefetch(base + grandchild);
        __builtin_prefetch(base + grandchild + 4);
      }
      child += static_cast<size_t>(child + 1 < n &&
                                   Precedes(heap_[child + 1], heap_[child]));
      heap_[hole] = heap_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    while (hole > 0) {
      size_t parent = (hole - 1) >> 1;
      if (!Precedes(last, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = last;
  }
}

bool Scheduler::PopNext(Event* out, SimTime until) {
  // No heap push filled the root since the last heap dispatch.
  if (root_free_) HeapPop();
  // The ring holds events at exactly Now(); heap entries at the same time
  // can only be older (smaller seq) arrivals, so one comparison restores
  // global FIFO order across the two structures.
  if (!ring_.empty()) {
    const Event& front = ring_.front();
    if (heap_.empty() || !Precedes(heap_[0], front)) {
      if (front.at > until) return false;
      *out = front;
      ring_.pop_front();
      return true;
    }
  }
  if (heap_.empty() || heap_[0].at > until) return false;
  *out = heap_[0];
  heap_[0].frame = nullptr;
  root_free_ = true;
  return true;
}

template <bool kTraced>
void Scheduler::Drain(SimTime until) {
  Event event;
  while (true) {
    // The hand-off lane drains before the calendar: its entries are ready
    // continuations at the current timestamp (see HandOff()).
    if (!handoffs_.empty()) {
      std::coroutine_handle<> h = handoffs_.front();
      handoffs_.pop_front();
      if (!h) continue;  // nulled by CancelHandle: no resume, no record
      ++inline_resumes_;
      if constexpr (kTraced) {
        // Lane resumes record statically as kChannel (see HandOff()).
        tracer_->Record(now_, TraceEventKind::kHandOff,
                        TraceTag(TraceSubsystem::kChannel).bits,
                        inline_resumes_);
      }
      h.resume();
      continue;
    }
    if (!PopNext(&event, until)) break;
    // Cancelled (tombstoned) events are dropped: no resume, no count, no
    // record, and Now() does not advance — as if never scheduled.
    if (event.frame == nullptr) continue;
    now_ = event.at;
    ++events_processed_;
    if constexpr (kTraced) {
      // The record's seq is the event's schedule-time sequence number (the
      // high bits of the packed word); the tag and the ring/calendar source
      // bit ride in the low bits (see PushEvent).
      tracer_->Record(event.at,
                      (event.seq & kTraceRingBit) ? TraceEventKind::kZeroDelay
                                                  : TraceEventKind::kCalendar,
                      static_cast<uint16_t>(event.seq),
                      event.seq >> kTraceTagShift);
    }
    std::coroutine_handle<>::from_address(event.frame).resume();
  }
}

void Scheduler::Run() {
  constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();
  if (tracer_ != nullptr) {
    Drain<true>(kForever);
  } else {
    Drain<false>(kForever);
  }
}

void Scheduler::RunUntil(SimTime until) {
  if (tracer_ != nullptr) {
    Drain<true>(until);
  } else {
    Drain<false>(until);
  }
  if (now_ < until) now_ = until;
}

}  // namespace pdblb::sim
