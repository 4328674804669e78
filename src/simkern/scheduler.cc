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
  // owned children recursively through the frames' Task locals.  This must
  // happen first — frame locals' destructors may own callback-free state
  // but never calendar entries, while calendar callbacks may reference
  // frame state (so they are destroyed, not run, afterwards).  Stale
  // coroutine handles left in the calendar by destroyed frames are never
  // dispatched.  tearing_down_ tells cancellation-aware awaiter/guard
  // destructors to no-op: the resources and queues they would clean up may
  // already be gone (Cluster destroys its members before the scheduler),
  // and nothing here will run again anyway.
  tearing_down_ = true;
  detached_.DestroyAll();
  // Destroy (without running) any callbacks still sitting in the calendar.
  // Tombstones carry payload 0 (low bit 0) and fall through the callback
  // test like any coroutine entry.
  for (const Event& e : heap_) DestroyPendingCallback(e);
  for (size_t i = 0; i < ring_size_; ++i) {
    DestroyPendingCallback(ring_[(ring_head_ + i) & (ring_.size() - 1)]);
  }
}

bool Scheduler::CancelHandle(std::coroutine_handle<> h) {
  assert(h);
  const uint64_t bits = reinterpret_cast<uint64_t>(h.address());
  // A suspended frame has at most one pending entry across the three
  // structures, so stop at the first hit.  Calendar first: timer-style
  // waits (Delay) dominate the cancellation paths.
  for (Event& e : heap_) {
    if (e.h == bits) {
      e.h = kCancelledEvent;
      return true;
    }
  }
  for (size_t i = 0; i < ring_size_; ++i) {
    Event& e = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    if (e.h == bits) {
      e.h = kCancelledEvent;
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

void Scheduler::DestroyPendingCallback(const Event& event) {
  if ((event.h & 1u) == 0) return;
  CallbackCell& cell = CellAt(static_cast<uint32_t>(event.h >> 1));
  cell.op(cell.storage, /*invoke=*/false);
}

void Scheduler::GrowCellSlab() {
  uint32_t base = static_cast<uint32_t>(cell_chunks_.size() * kCellsPerChunk);
  cell_chunks_.push_back(std::make_unique<CallbackCell[]>(kCellsPerChunk));
  // Reserve for every cell ever handed out: all of them can be in flight
  // simultaneously, and their completions push back onto this free list.
  free_cells_.reserve(cell_chunks_.size() * kCellsPerChunk);
  // Hand out low indices first (cosmetic: keeps early cells hot in cache).
  for (uint32_t i = 0; i < kCellsPerChunk; ++i) {
    free_cells_.push_back(base + (kCellsPerChunk - 1 - i));
  }
}

void Scheduler::RunCallbackCell(uint32_t idx) {
  // Chunk storage is stable, so the reference survives callbacks that
  // schedule further callbacks (which may grow the slab).  The cell is
  // recycled only after the callable ran and destroyed itself; a nested
  // ScheduleCallback can therefore never clobber the executing cell.  The
  // guard recycles the cell even when the callback throws (push_back onto
  // reserved capacity cannot throw).
  CallbackCell& cell = CellAt(idx);
  struct Guard {
    Scheduler* sched;
    uint32_t idx;
    ~Guard() { sched->free_cells_.push_back(idx); }
  } guard{this, idx};
  cell.op(cell.storage, /*invoke=*/true);
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

Scheduler::Event Scheduler::HeapPop() {
  Event top = heap_[0];
  const size_t n = heap_.size() - 1;
  Event last = heap_[n];
  heap_.pop_back();
  if (n > 0) {
    // Bottom-up deletion: walk the hole from the root to a leaf, always
    // promoting the smaller child (branchless select), then bubble the
    // former last leaf up from there.  This removes the unpredictable
    // early-exit test against the relocated leaf at every level — the
    // classic __adjust_heap trick, applied to trivially-copyable 24-byte
    // events.  (4-ary layouts, with and without branchless tournaments,
    // measured slower on bench_simkern; see the simkern README.)
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
  return top;
}

void Scheduler::RingPush(const Event& e) {
  if (ring_size_ == ring_.size()) RingGrow();
  ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] = e;
  ++ring_size_;
}

void Scheduler::RingGrow() {
  size_t cap = ring_.empty() ? 64 : ring_.size() * 2;
  std::vector<Event> grown(cap);
  for (size_t i = 0; i < ring_size_; ++i) {
    grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(grown);
  ring_head_ = 0;
}

void Scheduler::Reserve(size_t events, size_t callbacks) {
  heap_.reserve(events);
  while (ring_.size() < events) RingGrow();
  while (cell_chunks_.size() * kCellsPerChunk < callbacks) GrowCellSlab();
}

bool Scheduler::PopNext(Event* out, SimTime until) {
  // The ring holds events at exactly Now(); heap entries at the same time
  // can only be older (smaller seq) arrivals, so one comparison restores
  // global FIFO order across the two structures.
  if (ring_size_ > 0) {
    const Event& front = ring_[ring_head_];
    if (heap_.empty() || !Precedes(heap_[0], front)) {
      if (front.at > until) return false;
      *out = RingPop();
      return true;
    }
  }
  if (heap_.empty() || heap_[0].at > until) return false;
  *out = HeapPop();
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
    if (event.h == kCancelledEvent) continue;
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
    if ((event.h & 1u) == 0) {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(event.h))
          .resume();
    } else {
      RunCallbackCell(static_cast<uint32_t>(event.h >> 1));
    }
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
