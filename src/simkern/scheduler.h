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
//  * Scheduling is relative: every push is ScheduleAfter(delay, ...), at
//    Now() + delay.
//  * The calendar is a compact index-based binary min-heap over those PODs:
//    no per-node allocation, trivially-copyable sifts, `Reserve()` for
//    pre-sizing.  Keys compare as one unsigned 128-bit integer (the bit
//    pattern of `at`, then `seq`), which orders exactly like (at, seq)
//    because every calendar time is a non-negative finite double.
//    (A bucketed calendar queue and a 4-ary heap were prototyped and
//    benchmarked; neither beat the binary heap — see the simkern README.)
//  * Repeated delays ride FIFO lanes: a future event joins the tail of the
//    lane that its delay holds (a small fixed table keyed by the delay's
//    bit pattern), and only each lane's head sits in the heap.  Events
//    pushed with one delay are already in (at, seq) order, since Now()
//    never decreases and rounding is monotone, so a lane's tail needs no
//    comparisons.  When its head is popped the lane's next entry is
//    written into the root and sifted down: one sift per lane event.
//  * Dispatching any other heap event leaves its slot in place as a free
//    root: a dispatched process usually schedules its next event before
//    the next pop (a hold), and that push is written into the root and
//    sifted down from the top.  Only a pop that still finds the root free
//    pays the bottom-up removal.
//  * Events scheduled at exactly the current time (zero delays, group and
//    channel wake-ups) bypass the heap through a FIFO RingBuffer; the
//    dispatch loop merges ring and heap by sequence number, so same-time
//    FIFO semantics are preserved while the common wake-up costs O(1).
//  * Coroutine frames are recycled through a size-bucketed arena (task.h),
//    so steady-state dispatch performs no heap allocations per event.
//  * Optional event tracing (trace_ring.h / tracer.h): every schedule call
//    carries a 16-bit TraceTag packed into the low bits of the event's
//    sequence word, below the ring bit and the lane field (ordering is
//    decided by the sequence number above them, so FIFO semantics are
//    untouched).  There is one drain loop, Drain<kTraced>: Run/RunUntil
//    check for an attached Tracer once per call and pick the
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

  /// Schedules `handle` to be resumed `delay` (>= 0) milliseconds from
  /// now, at Now() + delay.  `tag` attributes the eventual dispatch to a
  /// subsystem for tracing (default: kKernel); it never affects scheduling
  /// semantics.
  void ScheduleAfter(SimTime delay, std::coroutine_handle<> handle,
                     TraceTag tag = {}) {
    assert(handle);
    PushEvent(delay, handle.address(), tag);
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
  /// calendar (heap or delay-lane) or ring entry is tombstoned in place
  /// (order is untouched — only the payload word changes) and hand-off
  /// lane entries are nulled;
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
      SimTime delta;
      // Set while suspended; lets the destructor scrub the pending calendar
      // entry when the frame is destroyed mid-wait (Scheduler::Cancel).
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        pending = h;
        sched->ScheduleAfter(delta, h);
      }
      void await_resume() noexcept { pending = nullptr; }
      ~Awaiter() {
        if (pending && !sched->tearing_down()) sched->CancelHandle(pending);
      }
    };
    assert(delta >= 0.0);
    return Awaiter{this, delta};
  }

  /// Delay attributed to `tag` in event traces (disk transmission, network
  /// wire latency).  The tag rides on the awaiter frame until suspension.
  auto Delay(SimTime delta, TraceTag tag) {
    struct Awaiter {
      Scheduler* sched;
      SimTime delta;
      TraceTag tag;
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        pending = h;
        sched->ScheduleAfter(delta, h, tag);
      }
      void await_resume() noexcept { pending = nullptr; }
      ~Awaiter() {
        if (pending && !sched->tearing_down()) sched->CancelHandle(pending);
      }
    };
    assert(delta >= 0.0);
    return Awaiter{this, delta, tag};
  }

  /// Runs until the event calendar is empty.  An exception thrown out of a
  /// detached process propagates out of Run/RunUntil.
  void Run();

  /// Runs all events with timestamp <= `until`, then advances Now() to
  /// `until`.  Later events remain queued.
  void RunUntil(SimTime until);

  /// Pre-sizes the heap, the same-time ring and the delay lanes' chunk
  /// pool so a run with at most `events` concurrently pending events
  /// allocates nothing.  A lane's waiting events fill whole chunks but
  /// for its first and last one.
  void Reserve(size_t events) {
    heap_.reserve(events);
    ring_.reserve(events);
    const size_t chunks = events / kChunkEvents + 2 * kLanes;
    slots_.reserve(chunks * kChunkEvents);
    chunk_next_.reserve(chunks);
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
  /// Calendar (heap and lane tails), ring and hand-off entries, including
  /// tombstones not yet popped (or cleared by CancelAll): an entry
  /// cancelled by CancelHandle counts until the drain loop drops it.  A
  /// free root (the slot of the heap event being dispatched, see PopNext)
  /// is not one of them.
  size_t pending_events() const {
    return heap_.size() - static_cast<size_t>(root_free_) + lane_entries_ +
           ring_.size() + handoffs_.size();
  }
  /// The part of pending_events() that waits in delay lanes behind their
  /// heads, off the heap (diagnostics).
  size_t lane_events() const { return lane_entries_; }

 private:
  uint64_t SpawnRoot(Task<> task, TaskGroup* group) {
    Task<>::Handle h = task.Detach();
    const uint64_t id = next_spawn_id_++;
    detached_.Register(h, &h.promise(), id, group);
    ScheduleAfter(0.0, h);
    return id;
  }

  // One calendar entry.  `frame` is the address of the suspended coroutine
  // frame to resume.  `seq` packs, from the low bits up: the TraceTag
  // (bits 0–15) and the ring bit (16), which tracing reads; the lane field
  // (bits 17–23, kLaneShift), the index of the delay lane that a heap entry
  // heads, 0 for none; and the sequence number (bits 24–63, kSeqShift),
  // ~10^12 pushes per scheduler, asserted in PushEvent.  Precedes() needs
  // no mask: distinct events always differ in the sequence number.
  struct Event {
    SimTime at;
    uint64_t seq;
    void* frame;
  };

  // The lanes form kLanes / 2 sets of two ways: a delay may take either
  // lane of its set, so two frequent delays that hash to one set do not
  // evict each other.
  static constexpr unsigned kLaneSetBits = 5;
  static constexpr size_t kLanes = size_t{2} << kLaneSetBits;
  static constexpr unsigned kLaneShift = kTraceTagShift;
  static constexpr uint64_t kLaneMask = 2 * kLanes - 1;  // index 1..kLanes
  static constexpr unsigned kSeqShift = kLaneShift + kLaneSetBits + 2;
  static constexpr uint64_t kSeqStep = uint64_t{1} << kSeqShift;
  static constexpr uint32_t kNoChunk = std::numeric_limits<uint32_t>::max();

  // A FIFO of future events pushed with one delay, at lanes_[index] for
  // index 1..kLanes (slot 0 stands for "no lane" and stays unused).  `key`
  // is the bit pattern of the lane's delay, with kLaneHeld set while the
  // delay holds the lane; a delay is positive, so its sign bit is free,
  // and +0.0 never gets here (a zero delay goes to the ring).  A held lane
  // has `size` pending events: its oldest sits in the heap carrying the
  // lane's index, and the others, its tail, wait in push order, which is
  // calendar order, in slots_[first] to slots_[last - 1], following the
  // chunk chain at each chunk's end; a `last` on a chunk boundary means
  // the next append needs a new chunk.  A held lane with no pending event
  // is idle: it keeps its delay, and its delay's next event heads it,
  // until a delay that holds no lane takes it over (PushMiss).  A free
  // lane remembers the last delay that went past it, and `last_at` the
  // time of that delay's last event pushed to the heap on its own.
  // Aligned so that no lane straddles two cache lines.
  struct alignas(32) Lane {
    uint64_t key = 0;
    SimTime last_at = 0.0;
    uint32_t size = 0;
    uint32_t first = 0;
    uint32_t last = 0;
  };
  static_assert(sizeof(Lane) == 32);
  static constexpr uint64_t kLaneHeld = uint64_t{1} << 63;

  // The lanes' tails share one pool of fixed-size chunks, kept as one flat
  // array of slots (chunk c is slots c * kChunkEvents onwards), so the pool
  // grows to the most events waiting in lanes at once, plus at most two
  // part-filled chunks per lane, and a slot is addressed with a shift.
  // chunk_next_[c] links chunk c to its lane's next chunk, or a free chunk
  // to the next free one, last freed first.  Every slot that holds no
  // waiting event has a null frame, so CancelHandle never matches it.
  static constexpr uint32_t kChunkEvents = 16;

  // The first lane of the delay's set; the second is the next one.
  // Fibonacci hashing: the multiply spreads the mantissa, whose low bits
  // are zero for round delays such as 0.5 or 0.75.
  static size_t LaneOf(uint64_t key) {
    return 1 + 2 * static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                       (64 - kLaneSetBits));
  }

  // Cancelled entries keep their (at, seq) key — overwriting only the
  // payload with null preserves heap and lane order — and are dropped by
  // the drain loop without dispatch, count or trace record.  ScheduleAfter
  // asserts a non-null handle, so null marks nothing but a cancellation.
  static_assert(sizeof(Event) == 24, "Event must stay a compact POD");
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(std::numeric_limits<SimTime>::is_iec559,
                "Precedes() orders times by their IEEE-754 bit patterns");
  static_assert((kLaneMask << kLaneShift) < kSeqStep &&
                    (kLaneMask & kLanes) != 0,
                "the lane field holds every lane index below the sequence");

  // Min on time, FIFO (seq) for equal times, compared as one unsigned
  // 128-bit key (bit pattern of `at`, then `seq`): GCC emits a cmp/sbb
  // pair, no float compare and no branch.  For non-negative finite doubles
  // the bit patterns order exactly like the values, and every calendar
  // time is one: heap and lane entries have at > Now() >= +0.0, and ring
  // entries store now_ rather than Now() + delay, so a -0.0 (whose sign
  // bit would sort it last) never enters.
  static bool Precedes(const Event& a, const Event& b) {
    using Key = unsigned __int128;
    auto key = [](const Event& e) {
      return Key{std::bit_cast<uint64_t>(e.at)} << 64 | e.seq;
    };
    return key(a) < key(b);
  }

  // next_seq_ is kept pre-scaled (stepped by kSeqStep) so a push pays one
  // OR for the tag and no shift; with the default tag the OR constant-folds
  // away entirely.  The sequence bump stays inside each branch so the
  // branch does not wait on the seq data flow.
  //
  // A future event joins the tail of a lane held by its delay: the lane's
  // last entry was pushed with the same delay at an earlier or equal
  // Now(), so it precedes the new one; an idle lane's event heads it, in
  // the heap.  Only the lane lookup and the append are inlined at the call
  // sites; a delay that holds no lane goes out of line to PushMiss.
  void PushEvent(SimTime delay, void* frame, TraceTag tag) {
    assert(delay >= 0.0);
    const SimTime at = now_ + delay;
    if (at == now_) {
      // The ring bit lets the traced drain loop label the record's source
      // structure without any side-channel from the pop path.
      uint64_t seq = next_seq_ | tag.bits | kTraceRingBit;
      next_seq_ += kSeqStep;
      assert(next_seq_ != 0 && "sequence numbers exhausted");
      ring_.push_back(Event{now_, seq, frame});  // now_: never a -0.0
      return;
    }
    uint64_t seq = next_seq_ | tag.bits;
    next_seq_ += kSeqStep;
    assert(next_seq_ != 0 && "sequence numbers exhausted");
    const uint64_t key = std::bit_cast<uint64_t>(delay);
    size_t index = LaneOf(key);
    if (lanes_[index].key != (key | kLaneHeld) &&
        lanes_[++index].key != (key | kLaneHeld)) {
      PushMiss(at, seq, frame, key, index - 1);
      return;
    }
    Lane& lane = lanes_[index];
    seq |= index << kLaneShift;
    if (lane.size++ == 0) {
      PushHeap(at, seq, frame);
      return;
    }
    uint32_t slot = lane.last;
    if (slot % kChunkEvents == 0) slot = AddChunk(lane);
    slots_[slot] = Event{at, seq, frame};
    lane.last = slot + 1;
    ++lane_entries_;
  }

  // A future push whose delay holds no lane: claims a free lane of the
  // delay's set that remembers the delay if the delay's last remembered
  // event is still pending (the event then heads the lane: its lane field
  // is set in `seq`), so a delay with one event at a time never gets a
  // lane; otherwise a lane of the set that is free, or else idle, forgets
  // its delay and remembers this one and the event's time.  Then pushes
  // the event into the heap.
  // `first` is the set's first lane, LaneOf(key).
  void PushMiss(SimTime at, uint64_t seq, void* frame, uint64_t key,
                size_t first);
  // Pushes an event into the heap, into the free root if there is one.
  void PushHeap(SimTime at, uint64_t seq, void* frame);

  // Gives `lane` a new chunk at the end of its tail, and returns the
  // chunk's first slot.
  uint32_t AddChunk(Lane& lane);
  // Returns the chunk holding `slot` to the pool.
  void FreeChunk(uint32_t slot);
  void SiftUp(size_t i);
  // Writes `e` into the free root and sifts it down from the top, stopping
  // at the first level where it precedes both children.  The early exit
  // shortens the chain of dependent loads that bounds a sift: it beat
  // HeapPop's walk to a leaf and back up (see the simkern README).
  void SiftDown(const Event& e);
  // Removes the free root (bottom-up deletion).
  void HeapPop();

  // Pops the globally next event if its timestamp is <= `until`.  A heap
  // event is copied out.  If it heads a lane with a tail, the tail's first
  // entry takes its slot; a lane head whose tail is empty leaves its lane
  // idle.
  // Otherwise the slot is left in place as the free root, with a null
  // frame so CancelHandle never matches it; the next heap push fills the
  // root, or the next PopNext removes it first.  An exception escaping Run
  // can leave the root free, which the next Run removes.
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
  // lanes_[0] is unused (see Lane).  The table lives outside the object:
  // embedded, its 2 KB moved every member of a Cluster after the
  // scheduler, and mixed_oltp80 read 4 % slower for it.
  std::vector<Lane> lanes_ = std::vector<Lane>(kLanes + 1);
  std::vector<Event> slots_;
  std::vector<uint32_t> chunk_next_;
  uint32_t free_chunk_ = kNoChunk;
  size_t lane_entries_ = 0;  // events waiting in lanes, behind their heads
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_SCHEDULER_H_
