// Copyright 2026 the pdblb authors. MIT license.
//
// The discrete-event scheduler: a calendar of timestamped events, each of
// which resumes a suspended coroutine.  Events with equal timestamps are
// processed in FIFO insertion order (stable via a sequence number), which
// makes every simulation run fully deterministic.
//
// Hot-path design (see src/simkern/README.md for the full story):
//  * An event is a 24-byte POD {at, seq, frame}: the payload is the
//    suspended frame's address, and null marks a cancelled entry.
//  * The calendar is a compact index-based binary min-heap over those PODs:
//    no per-node allocation, trivially-copyable sifts, `Reserve()` for
//    pre-sizing.  Keys compare as one unsigned 128-bit integer (the bit
//    pattern of `at`, then `seq`), which orders exactly like (at, seq)
//    because every calendar time is a non-negative finite double.
//    (A bucketed calendar queue and a 4-ary heap were prototyped and
//    benchmarked; neither beat the binary heap — see the simkern README.)
//  * Dispatching a heap event leaves its slot in place as a free root: a
//    dispatched process usually schedules its next event before the next
//    pop (a hold), and that push is written into the root and sifted down
//    from the top.  Only a pop that still finds the root free pays the
//    bottom-up removal.
//  * Events scheduled at exactly the current time (zero delays, group and
//    channel wake-ups) bypass the heap through a FIFO RingBuffer; the
//    dispatch loop merges ring and heap by sequence number, so same-time
//    FIFO semantics are preserved while the common wake-up costs O(1).
//  * Coroutine frames are recycled through a size-bucketed arena (task.h),
//    so steady-state dispatch performs no heap allocations per event.
//  * Optional event tracing (trace_ring.h / tracer.h): every schedule call
//    carries a 16-bit TraceTag packed into the low bits of the event's
//    sequence word (ordering is decided by the high 47 bits, so FIFO
//    semantics are untouched).  There is one drain loop, Drain<kTraced>:
//    Run/RunUntil check for an attached Tracer once per call and pick the
//    instantiation, so Drain<false> holds no tracing code and Drain<true>
//    writes one 16-byte record per event into a pre-allocated ring.

#ifndef PDBLB_SIMKERN_SCHEDULER_H_
#define PDBLB_SIMKERN_SCHEDULER_H_

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "simkern/ring.h"
#include "simkern/task.h"
#include "simkern/trace_ring.h"
#include "simkern/tracer.h"

namespace pdblb::sim {

/// Single-threaded discrete-event scheduler.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Current simulated time in milliseconds.
  SimTime Now() const { return now_; }

  /// Schedules `handle` to be resumed at absolute time `at` (>= Now()).
  /// `tag` attributes the eventual dispatch to a subsystem for tracing
  /// (default: kKernel); it never affects scheduling semantics.
  void ScheduleHandle(SimTime at, std::coroutine_handle<> handle,
                      TraceTag tag = {}) {
    assert(handle);
    PushEvent(at, handle.address(), tag);
  }

  /// Starts a detached simulation process at the current time.  The frame
  /// self-destroys on completion; frames still suspended at ~Scheduler are
  /// destroyed through the detached-frame registry.
  void Spawn(Task<> task) { (void)SpawnWithId(std::move(task)); }

  /// Spawn variant returning a cancellation token.  Ids are never reused,
  /// so a stale id held after the process finished (or was cancelled) is
  /// harmless: Cancel()/Alive() simply no longer find it.
  uint64_t SpawnWithId(Task<> task) {
    return SpawnRoot(std::move(task), nullptr);
  }

  /// Spawn variant for TaskGroup members: the member's own frame is
  /// registered, tagged with `group`, so its end (completion or Cancel)
  /// reports to the group and CancelOwned(group) finds it in flight.  A
  /// member costs its own frame and no per-member storage in the group.
  /// Returns the member's spawn id, as SpawnWithId does.
  uint64_t SpawnOwned(Task<> task, TaskGroup* group) {
    assert(group != nullptr);
    return SpawnRoot(std::move(task), group);
  }

  /// Cancel() for every in-flight member of `group`, oldest first.
  /// Allocation-free.
  void CancelOwned(const TaskGroup* group) {
    assert(group != nullptr);
    while (std::coroutine_handle<> h = detached_.FindOldestInGroup(group)) {
      CancelHandle(h);
      h.destroy();
    }
  }

  /// Cancels a detached process mid-run: scrubs its pending calendar/ring/
  /// hand-off entry (no ghost dispatch) and destroys the frame, which
  /// cascades through owned children — cancellation-aware awaiters
  /// (Delay, Resource, Channel, TaskGroup, lockmgr/bufmgr waits) remove
  /// their own queue entries and release held resources from their
  /// destructors.  A cancelled TaskGroup member ends for its group.  Must
  /// not be called on the currently-running process.  Returns false
  /// (no-op) if `id` already completed or was cancelled.
  /// Allocation-free: the scrub overwrites entries in place.
  bool Cancel(uint64_t id) {
    std::coroutine_handle<> h = detached_.FindById(id);
    if (!h) return false;
    CancelHandle(h);  // the root may be parked in the calendar itself
    h.destroy();
    return true;
  }

  /// Ends a simulation without running it further: Cancel() for every
  /// in-flight detached process, newest first, until none is left, then
  /// empties the calendar, the same-time ring and the hand-off lane, which
  /// by then hold only tombstones.  The cancellation-aware awaiters and
  /// guards release every server, slot, reservation, lock and queue entry
  /// on the way, as any cancellation does (their releases count in
  /// Resource::completed()).  Nothing is resumed and Now() stays put.
  /// Allocation-free.  Must not be called from a simulation process.
  void CancelAll();

  /// True while the detached process spawned as `id` is still in flight.
  bool Alive(uint64_t id) const { return static_cast<bool>(detached_.FindById(id)); }

  /// Removes the pending event that would resume `h`, if any: the matching
  /// calendar/ring entry is tombstoned in place (heap order is untouched —
  /// only the payload word changes) and hand-off lane entries are nulled;
  /// the drain loop skips tombstones without dispatching, counting or
  /// tracing them.  A suspended frame has at most one pending entry, so the
  /// scan stops at the first hit.  Called by cancellation-aware awaiter
  /// destructors; allocates nothing.
  bool CancelHandle(std::coroutine_handle<> h);

  /// True from the start of ~Scheduler: frames destroyed during teardown
  /// must not touch resources or queues (Cluster members that own them are
  /// already gone) — cancellation-aware destructors check this and no-op,
  /// preserving the pre-cancellation teardown contract (stale handles left
  /// in the calendar are never dispatched).
  bool tearing_down() const { return tearing_down_; }

  /// Inline-resume entry point for blocking-primitive hand-offs (a channel
  /// value handed to a blocked consumer).  The handle is placed on the
  /// hand-off lane: a FIFO of ready continuations that the dispatch loop
  /// resumes at the current timestamp *ahead of* calendar events, paying no
  /// calendar event, no sequence number and no heap/ring traffic.  Unlike
  /// resuming `h` synchronously inside the caller, the lane drains only
  /// after the current continuation suspends — so a producer emitting a
  /// burst of values keeps running and the woken consumer still drains the
  /// whole burst in one resumption.  Hand-offs are FIFO among themselves
  /// and the primitive's own waiter queue fixes who is woken, so same-time
  /// FIFO ordering among the waiters is preserved; primitives where
  /// *calendar* FIFO position is the contract (Delay(0) yields, task-group
  /// join broadcasts) must keep scheduling through the calendar.
  /// Dispatch stays fully deterministic: hand-offs occur at fixed points of
  /// the event sequence.
  /// The lane takes no TraceTag and records statically as kChannel:
  /// channels are the lane's only client (see the contract above), and a
  /// per-entry tag would either widen the 8-byte entry or cost a branch per
  /// Send — measurable on the 5 ns/op channel shapes.  A future non-channel
  /// client that needs attribution should add a parallel tag ring gated on
  /// the tracer.
  void HandOff(std::coroutine_handle<> h) {
    assert(h);
    handoffs_.push_back(h);
  }

  /// Awaitable that suspends the current process for `delta` milliseconds.
  /// A zero delay still yields through the event queue (FIFO fairness).
  /// Attributed to kKernel; this overload carries no tag on the awaiter,
  /// so the default-tag constant folds through the inlined push and the
  /// hot zero-delay path pays nothing for tracing support.
  auto Delay(SimTime delta) {
    struct Awaiter {
      Scheduler* sched;
      SimTime at;
      // Set while suspended; lets the destructor scrub the pending calendar
      // entry when the frame is destroyed mid-wait (Scheduler::Cancel).
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        pending = h;
        sched->ScheduleHandle(at, h);
      }
      void await_resume() noexcept { pending = nullptr; }
      ~Awaiter() {
        if (pending && !sched->tearing_down()) sched->CancelHandle(pending);
      }
    };
    assert(delta >= 0.0);
    return Awaiter{this, now_ + delta};
  }

  /// Delay attributed to `tag` in event traces (disk transmission, network
  /// wire latency).  The tag rides on the awaiter frame until suspension.
  auto Delay(SimTime delta, TraceTag tag) {
    struct Awaiter {
      Scheduler* sched;
      SimTime at;
      TraceTag tag;
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        pending = h;
        sched->ScheduleHandle(at, h, tag);
      }
      void await_resume() noexcept { pending = nullptr; }
      ~Awaiter() {
        if (pending && !sched->tearing_down()) sched->CancelHandle(pending);
      }
    };
    assert(delta >= 0.0);
    return Awaiter{this, now_ + delta, tag};
  }

  /// Runs until the event calendar is empty.  An exception thrown out of a
  /// detached process propagates out of Run/RunUntil.
  void Run();

  /// Runs all events with timestamp <= `until`, then advances Now() to
  /// `until`.  Later events remain queued.
  void RunUntil(SimTime until);

  /// Pre-sizes the heap and the same-time ring so a run with at most
  /// `events` concurrently pending events allocates nothing.
  void Reserve(size_t events) {
    heap_.reserve(events);
    ring_.reserve(events);
  }

  /// Attaches (or detaches, with nullptr) an event tracer: every dispatch
  /// and hand-off resume is recorded until detached.  Takes effect at the
  /// next Run/RunUntil call (the drain loop binds to the tracer once per
  /// call, so the untraced loop holds no tracing code); must not be called
  /// from inside a running simulation process.  The tracer must outlive
  /// its attachment.
  void AttachTracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Number of events processed since construction (diagnostics).
  uint64_t events_processed() const { return events_processed_; }
  /// Detached (Spawn'ed) processes still in flight.  Frames suspended here
  /// at ~Scheduler are destroyed, not leaked (see task.h DetachedRegistry).
  size_t detached_in_flight() const { return detached_.size(); }
  /// Number of calendar-bypassing hand-off resumes (diagnostics).  Counted
  /// separately from events_processed(): hand-offs are not calendar events.
  uint64_t inline_resumes() const { return inline_resumes_; }
  /// Calendar, ring and hand-off entries, including tombstones not yet
  /// popped (or cleared by CancelAll): an entry cancelled by CancelHandle
  /// counts until the drain loop drops it.  A free root (the slot of the
  /// heap event being dispatched, see PopNext) is not one of them.
  size_t pending_events() const {
    return heap_.size() - static_cast<size_t>(root_free_) + ring_.size() +
           handoffs_.size();
  }

 private:
  uint64_t SpawnRoot(Task<> task, TaskGroup* group) {
    Task<>::Handle h = task.Detach();
    const uint64_t id = next_spawn_id_++;
    detached_.Register(h, &h.promise(), id, group);
    ScheduleHandle(now_, h);
    return id;
  }

  // One calendar entry.  `frame` is the address of the suspended coroutine
  // frame to resume.  The low kTraceTagShift bits of `seq` hold the packed
  // TraceTag and the ring bit; the real sequence number occupies the high
  // bits, so Precedes() needs no mask (distinct events always differ in the
  // high bits).  Sequence numbers occupy bits 17–62 (kTraceTagShift = 17);
  // bit 63 is never set and free for another use.
  struct Event {
    SimTime at;
    uint64_t seq;
    void* frame;
  };

  // Cancelled entries keep their (at, seq) key — overwriting only the
  // payload with null preserves heap order — and are dropped by the drain
  // loop without dispatch, count or trace record.  ScheduleHandle asserts
  // a non-null handle, so null marks nothing but a cancellation.
  static_assert(sizeof(Event) == 24, "Event must stay a compact POD");
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(std::numeric_limits<SimTime>::is_iec559,
                "Precedes() orders times by their IEEE-754 bit patterns");

  // Min on time, FIFO (seq) for equal times, compared as one unsigned
  // 128-bit key (bit pattern of `at`, then `seq`): GCC emits a cmp/sbb
  // pair, no float compare and no branch.  For non-negative finite doubles
  // the bit patterns order exactly like the values, and every calendar
  // time is one: heap entries have at > Now() >= +0.0, and ring entries
  // store now_ rather than the caller's `at`, so a -0.0 (whose sign bit
  // would sort it last) never enters.
  static bool Precedes(const Event& a, const Event& b) {
    using Key = unsigned __int128;
    auto key = [](const Event& e) {
      return Key{std::bit_cast<uint64_t>(e.at)} << 64 | e.seq;
    };
    return key(a) < key(b);
  }

  // next_seq_ is kept pre-scaled (stepped by 1 << kTraceTagShift) so a push
  // pays one OR for the tag and no shift; with the default tag the OR
  // constant-folds away entirely.  The sequence bump stays inside each
  // branch so the branch does not wait on the seq data flow.
  void PushEvent(SimTime at, void* frame, TraceTag tag) {
    assert(at >= now_);
    constexpr uint64_t kSeqStep = uint64_t{1} << kTraceTagShift;
    if (at == now_) {
      // The ring bit lets the traced drain loop label the record's source
      // structure without any side-channel from the pop path.
      uint64_t seq = next_seq_ | tag.bits | kTraceRingBit;
      next_seq_ += kSeqStep;
      ring_.push_back(Event{now_, seq, frame});  // now_: never a -0.0
    } else {
      uint64_t seq = next_seq_ | tag.bits;
      next_seq_ += kSeqStep;
      if (root_free_) {
        root_free_ = false;
        SiftDown(Event{at, seq, frame});
      } else {
        heap_.push_back(Event{at, seq, frame});
        SiftUp(heap_.size() - 1);
      }
    }
  }

  void SiftUp(size_t i);
  // Writes `e` into the free root and sifts it down from the top, stopping
  // at the first level where it precedes both children.  The early exit
  // shortens the chain of dependent loads that bounds a sift: it beat
  // HeapPop's walk to a leaf and back up (see the simkern README).
  void SiftDown(const Event& e);
  // Removes the free root (bottom-up deletion).
  void HeapPop();

  // Pops the globally next event if its timestamp is <= `until`.  A heap
  // event is copied out and its slot left in place as the free root, with
  // a null frame so CancelHandle never matches it; the next heap push
  // fills the root, or the next PopNext removes it first.  An exception
  // escaping Run can leave the root free, which the next Run removes.
  bool PopNext(Event* out, SimTime until);

  // The one dispatch loop behind Run and RunUntil: resumes hand-off lane
  // entries ahead of calendar events and dispatches every event with
  // at <= `until`.  Run/RunUntil test tracer_ once per call, not once per
  // event (a per-dispatch branch cost 5–8% on the fastest bench_simkern
  // shapes), so Drain<false> holds no tracing code and Drain<true> records
  // every dispatch and hand-off resume.
  template <bool kTraced>
  void Drain(SimTime until);

  std::vector<Event> heap_;  // implicit binary min-heap
  bool root_free_ = false;  // heap_[0] is a free root (see PopNext)
  // FIFO of events at exactly Now().  It drains (merged with same-time heap
  // entries by seq) before simulated time can advance, so its entries are
  // always at the current timestamp.
  RingBuffer<Event> ring_;
  RingBuffer<std::coroutine_handle<>, 4> handoffs_;  // inline-resume lane

  internal::DetachedRegistry detached_;  // in-flight Spawn'ed frames

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_spawn_id_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t inline_resumes_ = 0;
  bool tearing_down_ = false;
  Tracer* tracer_ = nullptr;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_SCHEDULER_H_
