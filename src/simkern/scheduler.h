// Copyright 2026 the pdblb authors. MIT license.
//
// The discrete-event scheduler: a calendar of timestamped events, each of
// which resumes a suspended coroutine or invokes a callback.  Events with
// equal timestamps are processed in FIFO insertion order (stable via a
// sequence number), which makes every simulation run fully deterministic.
//
// Hot-path design (see src/simkern/README.md for the full story):
//  * An event is a 24-byte POD {at, seq, handle_bits}.  Callbacks are not
//    stored in the calendar; they live in a side slab of fixed-size cells
//    and the event carries a tagged cell index (low bit 1).  Coroutine
//    handles are stored as their address (low bit 0 — frames are aligned).
//  * The calendar is a compact index-based binary min-heap over those PODs
//    with bottom-up deletion and branchless child selection: no per-node
//    allocation, trivially-copyable sifts, `Reserve()` for pre-sizing.
//    (A bucketed calendar queue was prototyped and benchmarked; it lost to
//    the compact heap on every scenario of bench_simkern — see the simkern
//    README for the numbers.)
//  * Events scheduled at exactly the current time (zero delays, latch and
//    channel wake-ups) bypass the heap through a FIFO ring buffer; the
//    dispatch loop merges ring and heap by sequence number, so same-time
//    FIFO semantics are preserved while the common wake-up costs O(1).
//  * Callback cells are recycled through a free list and store small
//    callables inline (small-buffer optimization), and coroutine frames
//    are recycled through a size-bucketed arena (task.h), so steady-state
//    dispatch performs no heap allocations per event.
//  * Optional event tracing (trace_ring.h / tracer.h): every schedule call
//    carries a 16-bit TraceTag packed into the low bits of the event's
//    sequence word (ordering is decided by the high 47 bits, so FIFO
//    semantics are untouched).  There is one drain loop, Drain<kTraced>:
//    Run/RunUntil check for an attached Tracer once per call and pick the
//    instantiation, so Drain<false> holds no tracing code and Drain<true>
//    writes one 16-byte record per event into a pre-allocated ring.

#ifndef PDBLB_SIMKERN_SCHEDULER_H_
#define PDBLB_SIMKERN_SCHEDULER_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
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
    PushEvent(at, reinterpret_cast<uint64_t>(handle.address()), tag);
  }

  /// Schedules `fn` to run at absolute time `at` (>= Now()).  Callables up
  /// to kInlineCallbackBytes are stored inline in a recycled cell (no heap
  /// allocation); larger ones fall back to the heap.
  template <typename F>
  void ScheduleCallback(SimTime at, F&& fn, TraceTag tag = {}) {
    uint32_t idx = StoreCallback(std::forward<F>(fn));
    PushEvent(at, (static_cast<uint64_t>(idx) << 1) | 1u, tag);
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

  /// Spawn variant for members of a structured group (TaskGroup): `owner`
  /// tags the process so that CancelOwned(owner) finds it while it is in
  /// flight.  The group needs no per-member storage of its own.
  void SpawnOwned(Task<> task, const void* owner) {
    assert(owner != nullptr);
    (void)SpawnRoot(std::move(task), owner);
  }

  /// Cancel() for every in-flight process spawned with `owner`, oldest
  /// first.  Allocation-free.
  void CancelOwned(const void* owner) {
    assert(owner != nullptr);
    while (std::coroutine_handle<> h = detached_.FindOldestOwnedBy(owner)) {
      CancelHandle(h);
      h.destroy();
    }
  }

  /// Cancels a detached process mid-run: scrubs its pending calendar/ring/
  /// hand-off entry (no ghost dispatch) and destroys the frame, which
  /// cascades through owned children — cancellation-aware awaiters
  /// (Delay, Resource, Channel, Latch, TaskGroup, lockmgr/bufmgr waits)
  /// remove their own queue entries and release held resources from their
  /// destructors.  Must not be called on the currently-running process.
  /// Returns false (no-op) if `id` already completed or was cancelled.
  /// Allocation-free: the scrub overwrites entries in place.
  bool Cancel(uint64_t id) {
    std::coroutine_handle<> h = detached_.FindById(id);
    if (!h) return false;
    CancelHandle(h);  // the root may be parked in the calendar itself
    h.destroy();
    return true;
  }

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
  /// *calendar* FIFO position is the contract (Delay(0) yields, latch
  /// fan-out broadcasts) must keep scheduling through the calendar.
  /// Dispatch stays fully deterministic: hand-offs occur at fixed points of
  /// the event sequence.
  /// The `tag` parameter is accepted for call-site symmetry but the lane
  /// records statically as kChannel: channels are the lane's only client
  /// (see the contract above), and a per-entry tag would either widen the
  /// 8-byte entry or cost a branch per Send — measurable on the 5 ns/op
  /// channel shapes.  A future non-channel client that needs attribution
  /// should reintroduce a parallel tag ring gated on the tracer.
  void HandOff(std::coroutine_handle<> h, TraceTag tag = {}) {
    assert(h);
    (void)tag;
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

  /// Runs until the event calendar is empty.
  void Run();

  /// Runs all events with timestamp <= `until`, then advances Now() to
  /// `until`.  Later events remain queued.
  void RunUntil(SimTime until);

  /// Pre-sizes the calendar (and optionally the callback slab) so a run
  /// with at most `events` concurrently pending events allocates nothing.
  void Reserve(size_t events, size_t callbacks = 0);

  /// Signals cooperative shutdown: long-running generator processes are
  /// expected to poll ShuttingDown() after each wait and terminate.
  void RequestShutdown() { shutting_down_ = true; }
  bool ShuttingDown() const { return shutting_down_; }

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
  size_t pending_events() const {
    return heap_.size() + ring_size_ + handoffs_.size();
  }

 private:
  uint64_t SpawnRoot(Task<> task, const void* owner) {
    Task<>::Handle h = task.Detach();
    const uint64_t id = next_spawn_id_++;
    detached_.Register(h, &h.promise(), id, owner);
    ScheduleHandle(now_, h);
    return id;
  }

  // One calendar entry.  `h` is a tagged word: coroutine handle address
  // (low bit 0) or (callback cell index << 1) | 1.  The low kTraceTagShift
  // bits of `seq` hold the packed TraceTag and the ring bit; the real
  // sequence number occupies the high bits, so Precedes() needs no mask
  // (distinct events always differ in the high bits).  Sequence numbers
  // occupy bits 17–62 (kTraceTagShift = 17); bit 63 is never set and free
  // for another use.
  struct Event {
    SimTime at;
    uint64_t seq;
    uint64_t h;
  };

  // Tombstone payload for cancelled events.  0 can collide with neither a
  // coroutine handle (ScheduleHandle asserts non-null) nor a callback cell
  // (their words carry low bit 1), and its low bit 0 means the teardown
  // callback sweep skips it for free.  Cancelled entries keep their (at,
  // seq) key — overwriting only the payload preserves heap order — and are
  // dropped by the drain loop without dispatch, count or trace record.
  static constexpr uint64_t kCancelledEvent = 0;
  static_assert(sizeof(Event) == 24, "Event must stay a compact POD");
  static_assert(std::is_trivially_copyable_v<Event>);

  // Min on time, FIFO (seq) for equal times.  Written as bitwise logic so
  // the compiler emits setcc/cmov instead of branches: sift comparisons on
  // random timestamps are ~50/50 and would otherwise mispredict.
  static bool Precedes(const Event& a, const Event& b) {
    return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
  }

  // --- callback cell slab -------------------------------------------------
  // Cells are allocated in fixed chunks (stable addresses, no relocation of
  // live callables) and recycled through a free list.  `op` both invokes
  // (invoke=true) and destroys, or just destroys (invoke=false, used when
  // the scheduler is torn down with events still pending).
  static constexpr size_t kInlineCallbackBytes = 48;
  static constexpr size_t kCellsPerChunk = 64;
  struct CallbackCell {
    void (*op)(void* storage, bool invoke);
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };

  // Moves `fn` into a recycled cell (inline when it fits, boxed otherwise)
  // and returns the cell index, which ScheduleCallback pushes as a tagged
  // calendar payload.
  template <typename F>
  uint32_t StoreCallback(F&& fn) {
    using Fn = std::decay_t<F>;
    uint32_t idx = AllocCell();
    CallbackCell& cell = CellAt(idx);
    try {
      if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(cell.storage)) Fn(std::forward<F>(fn));
        cell.op = [](void* storage, bool invoke) {
          Fn* f = std::launder(reinterpret_cast<Fn*>(storage));
          // Destroy even if the invocation throws.
          struct Guard {
            Fn* f;
            ~Guard() { f->~Fn(); }
          } guard{f};
          if (invoke) (*f)();
        };
      } else {
        Fn* boxed = new Fn(std::forward<F>(fn));
        std::memcpy(cell.storage, &boxed, sizeof(boxed));
        cell.op = [](void* storage, bool invoke) {
          Fn* f;
          std::memcpy(&f, storage, sizeof(f));
          struct Guard {
            Fn* f;
            ~Guard() { delete f; }
          } guard{f};
          if (invoke) (*f)();
        };
      }
    } catch (...) {
      free_cells_.push_back(idx);  // reserved capacity: cannot throw
      throw;
    }
    return idx;
  }

  CallbackCell& CellAt(uint32_t idx) {
    return cell_chunks_[idx / kCellsPerChunk][idx % kCellsPerChunk];
  }
  uint32_t AllocCell() {
    if (free_cells_.empty()) GrowCellSlab();
    uint32_t idx = free_cells_.back();
    free_cells_.pop_back();
    return idx;
  }
  void GrowCellSlab();

  // --- calendar -----------------------------------------------------------
  // next_seq_ is kept pre-scaled (stepped by 1 << kTraceTagShift) so a push
  // pays one OR for the tag and no shift; with the default tag the OR
  // constant-folds away entirely.  The sequence bump stays inside each
  // branch so the branch does not wait on the seq data flow.
  void PushEvent(SimTime at, uint64_t h, TraceTag tag) {
    assert(at >= now_);
    constexpr uint64_t kSeqStep = uint64_t{1} << kTraceTagShift;
    if (at == now_) {
      // The ring bit lets the traced drain loop label the record's source
      // structure without any side-channel from the pop path.
      uint64_t seq = next_seq_ | tag.bits | kTraceRingBit;
      next_seq_ += kSeqStep;
      RingPush(Event{at, seq, h});
    } else {
      uint64_t seq = next_seq_ | tag.bits;
      next_seq_ += kSeqStep;
      heap_.push_back(Event{at, seq, h});
      SiftUp(heap_.size() - 1);
    }
  }

  void SiftUp(size_t i);
  Event HeapPop();

  // FIFO ring for events at exactly Now().  The ring drains (merged with
  // same-time heap entries by seq) before simulated time can advance, so
  // its entries are always at the current timestamp.
  void RingPush(const Event& e);
  void RingGrow();
  Event RingPop() {
    Event e = ring_[ring_head_];
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_size_;
    return e;
  }

  // Pops the globally next event if its timestamp is <= `until`.
  bool PopNext(Event* out, SimTime until);

  // The one dispatch loop behind Run and RunUntil: resumes hand-off lane
  // entries ahead of calendar events and dispatches every event with
  // at <= `until`.  Run/RunUntil test tracer_ once per call, not once per
  // event (a per-dispatch branch cost 5–8% on the fastest bench_simkern
  // shapes), so Drain<false> holds no tracing code and Drain<true> records
  // every dispatch and hand-off resume.
  template <bool kTraced>
  void Drain(SimTime until);
  void RunCallbackCell(uint32_t idx);
  void DestroyPendingCallback(const Event& event);

  std::vector<Event> heap_;  // implicit binary min-heap
  std::vector<Event> ring_;  // power-of-two capacity FIFO ring
  size_t ring_head_ = 0;
  size_t ring_size_ = 0;
  RingBuffer<std::coroutine_handle<>, 4> handoffs_;  // inline-resume lane

  std::vector<std::unique_ptr<CallbackCell[]>> cell_chunks_;
  std::vector<uint32_t> free_cells_;

  internal::DetachedRegistry detached_;  // in-flight Spawn'ed frames

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_spawn_id_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t inline_resumes_ = 0;
  bool shutting_down_ = false;
  bool tearing_down_ = false;
  Tracer* tracer_ = nullptr;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_SCHEDULER_H_
