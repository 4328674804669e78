// Copyright 2026 the pdblb authors. MIT license.

#include "bufmgr/buffer_manager.h"

#include <algorithm>
#include <cassert>

namespace pdblb {
namespace {

// The touched window: how far back a reference makes a frame count as in
// use in the free memory a PE reports to the control node (TouchedPages).
constexpr SimTime kTouchedWindowMs = 300.0;

}  // namespace

BufferManager::BufferManager(sim::Scheduler& sched, const BufferConfig& config,
                             DiskArray& disks, std::string name)
    : sched_(sched),
      config_(config),
      disks_(disks),
      name_(std::move(name)),
      table_(config.eviction, std::max(1, config.buffer_pages)) {}

BufferManager::~BufferManager() {
  for (RangeRuns* runs : run_scratch_) delete runs;
}

void BufferManager::EvictOne() {
  const BufferFrame victim = table_.EvictVictim();
  if (victim.dirty) {
    ++dirty_writebacks_;
    // No-force policy: dirty pages are written back asynchronously.
    sched_.Spawn(disks_.WriteRandom(victim.page));
  }
  ++evictions_;
  last_evicted_ = victim.page;
}

void BufferManager::ShrinkResidentTo(int limit) {
  if (limit < 0) limit = 0;
  while (table_.resident() > limit) EvictOne();
}

sim::Task<bool> BufferManager::Fetch(PageKey page, AccessPattern pattern,
                                     bool priority_oltp) {
  int32_t slot = table_.Lookup(page);
  if (slot >= 0) {
    ++hits_;
    Touch(slot);
    co_return true;
  }
  ++misses_;

  if (UnreservedFrames() <= 0 && priority_oltp) {
    // Higher-priority OLTP work may reclaim join working space.
    StealFromVictims(1);
  }

  co_await disks_.Read(page, pattern);

  // A concurrent fetch may have admitted the page while we were on disk.
  slot = table_.Lookup(page);
  if (slot >= 0) {
    Touch(slot);
    co_return false;
  }
  int pool_limit = UnreservedFrames();
  if (pool_limit > 0) {
    // Make room for the new page, then admit it.
    ShrinkResidentTo(pool_limit - 1);
    table_.Admit(page, sched_.Now());
  }
  // else: every frame is reserved by join working spaces and the caller has
  // no steal privilege; the page is passed through without caching.
  co_return false;
}

BufferManager::RangeRuns* BufferManager::AcquireRunScratch() {
  if (run_scratch_.empty()) {
    RangeRuns* runs = new RangeRuns();
    // Missing runs are separated by resident pages, so no scan can produce
    // more than capacity + 1 runs.  Reserving the bound makes the first
    // lease this vector's only allocation ever — a later scan that happens
    // to hit a new high-water run count must not touch the heap.
    runs->reserve(static_cast<size_t>(config_.buffer_pages) + 1);
    return runs;
  }
  RangeRuns* runs = run_scratch_.back();
  run_scratch_.pop_back();
  return runs;
}

void BufferManager::ReleaseRunScratch(RangeRuns* runs) {
  runs->clear();
  run_scratch_.push_back(runs);
}

sim::Task<int64_t> BufferManager::FetchRange(PageKey first, int64_t count) {
  // The run list is a leased scratch vector recycled through the manager's
  // pool (runs are separated by resident pages, so a list never outgrows
  // capacity + 1 entries — the lease reaches its high-water mark once and
  // steady-state scans stop allocating).  The lease destructor returns it
  // when the frame dies, including cancellation mid-I/O; at full scheduler
  // teardown the manager may already be gone, so the lease frees the vector
  // instead of touching it.
  struct Lease {
    sim::Scheduler* sched;
    BufferManager* mgr;
    RangeRuns* runs;
    ~Lease() {
      if (sched->tearing_down()) {
        delete runs;
        return;
      }
      mgr->ReleaseRunScratch(runs);
    }
  } lease{&sched_, this, AcquireRunScratch()};
  RangeRuns& runs = *lease.runs;  // (offset, length) missing runs

  int64_t hits = 0;
  // Identify the missing runs up front; each run is read with one striped
  // request across the disk array.
  int64_t run_start = -1;
  for (int64_t i = 0; i < count; ++i) {
    PageKey p{first.relation_id, first.page_no + i};
    int32_t slot = table_.Lookup(p);
    if (slot >= 0) {
      ++hits_;
      ++hits;
      Touch(slot);
      if (run_start >= 0) {
        runs.emplace_back(run_start, i - run_start);
        run_start = -1;
      }
    } else {
      ++misses_;
      if (run_start < 0) run_start = i;
    }
  }
  if (run_start >= 0) runs.emplace_back(run_start, count - run_start);

  for (auto [offset, length] : runs) {
    co_await disks_.ReadStriped(
        PageKey{first.relation_id, first.page_no + offset}, length);
    for (int64_t i = 0; i < length; ++i) {
      PageKey p{first.relation_id, first.page_no + offset + i};
      int32_t slot = table_.Lookup(p);
      if (slot >= 0) {
        Touch(slot);  // admitted by a concurrent fetch meanwhile
        continue;
      }
      int pool_limit = UnreservedFrames();
      if (pool_limit > 0) {
        ShrinkResidentTo(pool_limit - 1);
        table_.Admit(p, sched_.Now());
      }
    }
  }
  co_return hits;
}

void BufferManager::MarkDirty(PageKey page) {
  int32_t slot = table_.Lookup(page);
  if (slot >= 0) table_.frame(slot).dirty = true;
}

bool BufferManager::IsResident(PageKey page) const {
  return table_.Lookup(page) >= 0;
}

int BufferManager::Grant(int want_pages) {
  // Joins may only reserve pages the protected hot set does not need.
  int granted = std::min(want_pages, GrantablePages());
  if (granted <= 0) return 0;
  reserved_ += granted;
  ShrinkResidentTo(UnreservedFrames());
  return granted;
}

int BufferManager::TryReserve(int want_pages) {
  if (!mem_queue_.empty()) return 0;  // FCFS: queued joins go first
  return Grant(want_pages);
}

sim::Task<int> BufferManager::ReserveWait(int min_pages, int want_pages) {
  min_pages = std::max(1, min_pages);
  want_pages = std::max(want_pages, min_pages);

  if (mem_queue_.empty() && GrantablePages() >= min_pages) {
    co_return Grant(want_pages);
  }

  MemWaiter waiter{min_pages, want_pages, 0, nullptr};
  mem_queue_.push_back(&waiter);

  // `waiter` lives on this coroutine frame; mem_queue_ holds a raw pointer
  // into it.  The awaiter's destructor undoes that registration when the
  // frame is destroyed mid-suspension (Scheduler::Cancel cascade): either
  // the waiter is still queued (erase it) or the grant already happened and
  // a wake event is in flight (scrub it and give the reservation back).
  // The scheduler pointer is stored directly because at full teardown the
  // manager itself may already be gone.
  struct Awaiter {
    sim::Scheduler* sched;
    BufferManager* mgr;
    MemWaiter* w;
    std::coroutine_handle<> pending = nullptr;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      pending = h;
      w->handle = h;
    }
    void await_resume() noexcept { pending = nullptr; }
    ~Awaiter() {
      if (!pending || sched->tearing_down()) return;
      if (mgr->mem_queue_.EraseLastIf([&](MemWaiter* q) { return q == w; })) {
        // Removing the head may unblock smaller requests behind it.
        mgr->ServeMemoryQueue();
        return;
      }
      sched->CancelHandle(pending);
      mgr->ReleaseReservation(w->granted);
    }
  };
  co_await Awaiter{&sched_, this, &waiter};
  co_return waiter.granted;
}

void BufferManager::ServeMemoryQueue() {
  while (!mem_queue_.empty()) {
    MemWaiter* head = mem_queue_.front();
    if (GrantablePages() < head->min_pages) break;
    head->granted = Grant(head->want_pages);
    mem_queue_.pop_front();
    // The waiter may not have suspended yet if Serve runs in the same event;
    // the handle is always set before any other event runs because the
    // queue is only served from ReleaseReservation (a separate event).
    assert(head->handle);
    sched_.ScheduleHandle(sched_.Now(), head->handle);
  }
}

void BufferManager::ReleaseReservation(int pages) {
  assert(pages >= 0);
  assert(reserved_ >= pages);
  reserved_ -= pages;
  ServeMemoryQueue();
}

sim::Task<> BufferManager::IngestBatch(PageKey first, int count) {
  assert(count >= 1);
  // Stage through a reservation no larger than the pool so the request is
  // always grantable; migration waits FCFS behind queued joins like any
  // other working-space customer.
  const int staging = std::min(count, capacity());
  int granted = co_await ReserveWait(staging, staging);
  // The guard releases the staging frames when the frame dies — normal
  // completion or cancellation mid-write (crash unwind); at full scheduler
  // teardown the manager may already be gone, so it must not be touched.
  struct StagingGuard {
    sim::Scheduler* sched;
    BufferManager* mgr;
    int pages;
    ~StagingGuard() {
      if (sched->tearing_down()) return;
      mgr->ReleaseReservation(pages);
    }
  } guard{&sched_, this, granted};
  co_await disks_.WriteBatch(first, count);
  // The pages are durable on the destination's disks but deliberately not
  // Admit()ed: cold bulk data must not displace the hot set.
}

void BufferManager::OnCrash() {
  // Cancellation of the resident queries must have unwound every
  // reservation, queued waiter and victim registration first; a crash that
  // leaks any of them is an engine bug, not a modelling choice.
  assert(reserved_ == 0 && "crash with live reservations");
  assert(mem_queue_.empty() && "crash with queued memory waiters");
  assert(victims_.empty() && "crash with registered steal victims");
  // Volatile buffer contents are lost.  No writebacks: dirty pages are
  // recovered from the log in a real system, and the simulated disk image
  // is not page-accurate — restarting cold is the observable effect.
  table_.Clear();
}

void BufferManager::RegisterVictim(MemoryVictim* victim) {
  victims_.push_back(victim);
}

void BufferManager::UnregisterVictim(MemoryVictim* victim) {
  victims_.erase(std::remove(victims_.begin(), victims_.end(), victim),
                 victims_.end());
}

void BufferManager::StealFromVictims(int needed) {
  while (UnreservedFrames() < needed) {
    MemoryVictim* fattest = nullptr;
    for (MemoryVictim* v : victims_) {
      if (v->ReservedPages() <= 0) continue;
      if (fattest == nullptr ||
          v->ReservedPages() > fattest->ReservedPages()) {
        fattest = v;
      }
    }
    if (fattest == nullptr) break;
    int got = fattest->StealPages(needed - UnreservedFrames());
    if (got <= 0) break;
    assert(got <= reserved_);
    reserved_ -= got;
    pages_stolen_ += got;
  }
}

int BufferManager::TouchedPages() const {
  SimTime cutoff = sched_.Now() - kTouchedWindowMs;
  int count = 0;
  for (const BufferFrame& f : table_.frames()) {
    if (f.resident && f.last_access >= cutoff) ++count;
  }
  return count;
}

int BufferManager::HotPages() const {
  SimTime cutoff = sched_.Now() - config_.working_set_window_ms;
  int count = 0;
  for (const BufferFrame& f : table_.frames()) {
    if (f.resident && f.prev_access >= cutoff) ++count;
  }
  return count;
}

int BufferManager::AvailablePages() const {
  return std::max(0, capacity() - reserved_ - TouchedPages());
}

int BufferManager::GrantablePages() const {
  return std::max(0, capacity() - reserved_ - HotPages());
}

double BufferManager::MemoryUtilization() const {
  double used = std::min<double>(capacity(), reserved_ + HotPages());
  return used / static_cast<double>(capacity());
}

void BufferManager::ResetStats() {
  hits_ = 0;
  misses_ = 0;
  pages_stolen_ = 0;
  dirty_writebacks_ = 0;
  evictions_ = 0;
}

}  // namespace pdblb
