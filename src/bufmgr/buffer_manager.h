// Copyright 2026 the pdblb authors. MIT license.
//
// Per-PE main-memory database buffer (paper Section 4):
//  * a global buffer shared by all transactions/queries, managed no-force
//    with asynchronous disk writes of dirty pages, and
//  * private working spaces for query processing (hash-join hash tables),
//    carved out of the same frame pool via reservations.
//
// The buffer manager is also where the paper's memory scheduling policies
// live:
//  * joins wait FCFS in a *memory queue* until their minimum working-space
//    requirement is available (PPHJ needs at least p pages),
//  * higher-priority OLTP transactions *steal* frames from running joins
//    when the unreserved pool runs dry (memory-adaptive PPHJ spills), and
//  * "available memory" reported to the control node is
//    capacity - reservations - OLTP working set, where the working set is a
//    sliding-window estimate of re-referenced resident pages.
//
// Residency lives in a FrameTable (bufmgr/frame_table.h); the replacement
// order is delegated to a pluggable EvictionPolicy (LRU / LRU-K / LFU /
// CLOCK, selected by BufferConfig::eviction — see docs/bufmgr.md).

#ifndef PDBLB_BUFMGR_BUFFER_MANAGER_H_
#define PDBLB_BUFMGR_BUFFER_MANAGER_H_

#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bufmgr/eviction_policy.h"
#include "bufmgr/frame_table.h"
#include "catalog/relation.h"
#include "common/config.h"
#include "iosim/disk.h"
#include "simkern/ring.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

/// Implemented by running joins so the buffer manager can reclaim working
/// space for higher-priority transactions (memory-adaptive PPHJ).
class MemoryVictim {
 public:
  virtual ~MemoryVictim() = default;
  /// Releases up to `wanted` pages of working space (spilling partitions as
  /// needed).  Returns the number of pages actually released.
  virtual int StealPages(int wanted) = 0;
  /// Pages currently held; used to pick the biggest victim first.
  virtual int ReservedPages() const = 0;
};

/// Per-PE buffer manager.
class BufferManager {
 public:
  BufferManager(sim::Scheduler& sched, const BufferConfig& config,
                DiskArray& disks, std::string name);
  ~BufferManager();

  // --- global page buffer --------------------------------------------------

  /// Brings `page` into the buffer (disk I/O on miss) for a read.
  /// Returns true on buffer hit.  `priority_oltp` marks accesses allowed to
  /// steal join working space when no unreserved frame exists.
  sim::Task<bool> Fetch(PageKey page, AccessPattern pattern,
                        bool priority_oltp = false);

  /// Fetches `count` consecutive pages for a sequential scan.  Missing runs
  /// are read with striped prefetching across the disk array; all pages are
  /// admitted to the buffer.  Returns the number of buffer hits.
  sim::Task<int64_t> FetchRange(PageKey first, int64_t count);

  /// Marks a resident page dirty (no-force: written back asynchronously on
  /// eviction).
  void MarkDirty(PageKey page);

  /// True if the page is currently buffered (for tests).
  bool IsResident(PageKey page) const;

  // --- working-space reservations ----------------------------------------

  /// FCFS memory queue: waits until at least `min_pages` unreserved frames
  /// exist, then reserves min(want_pages, unreserved) >= min_pages frames
  /// and returns the granted amount.
  sim::Task<int> ReserveWait(int min_pages, int want_pages);

  /// Immediately reserves up to `want_pages` (possibly 0) without waiting.
  int TryReserve(int want_pages);

  /// Returns reserved frames to the pool and serves the memory queue.
  void ReleaseReservation(int pages);

  /// Re-examines the memory queue.  Called periodically because the
  /// working-set estimate decays with time without generating events.
  void PumpMemoryQueue() { ServeMemoryQueue(); }

  /// Registers a running join as a steal target.
  void RegisterVictim(MemoryVictim* victim);
  void UnregisterVictim(MemoryVictim* victim);

  // --- migration ingest (engine/elastic.h) ---------------------------------

  /// Destination-side ingest of one fragment-migration batch: stages the
  /// incoming pages through a working-space reservation (so migration
  /// competes FCFS with joins for frames instead of bypassing memory
  /// pressure) and writes them to this PE's disks.  The pages are never
  /// admitted to the page buffer — bulk-loaded cold data must not displace
  /// the hot set or perturb eviction state.  The staging reservation is
  /// released on every exit path, including cancellation mid-write (crash
  /// unwind discards the partial batch at the caller).
  sim::Task<> IngestBatch(PageKey first, int count);

  // --- fault injection ------------------------------------------------------

  /// Models a PE crash: volatile state is lost — the resident set is wiped
  /// (no writebacks; the simulated disk is the durable copy) and access
  /// history cleared so the PE restarts cold.  Must be called after every
  /// resident query was cancelled: reservations, the memory queue and the
  /// victim list must already be empty (asserted).
  void OnCrash();

  // --- memory accounting ---------------------------------------------------

  int capacity() const { return config_.buffer_pages; }
  int reserved() const { return reserved_; }
  /// Frames not covered by reservations.
  int UnreservedFrames() const { return capacity() - reserved_; }

  /// Pages referenced at least once within the last 300 ms (the touched
  /// window) — the buffer manager's bookkeeping view of "in use" frames.
  int TouchedPages() const;
  /// Pages referenced at least twice within the working-set window — the
  /// protected hot set (OLTP branch/teller pages) that join reservations
  /// must not displace.
  int HotPages() const;

  /// What the PE reports to the control node as free memory (AVAIL-MEMORY):
  /// capacity - reservations - touched frames.  Conservative: a busy OLTP
  /// node reports only a handful of free pages.
  int AvailablePages() const;
  /// What a join reservation may actually claim: capacity - reservations -
  /// protected hot set (single-touch scan pages are evictable).
  int GrantablePages() const;
  /// reserved + hot set, as a fraction of capacity (the figure metric).
  double MemoryUtilization() const;

  size_t memory_queue_length() const { return mem_queue_.size(); }

  // --- statistics ----------------------------------------------------------
  int64_t buffer_hits() const { return hits_; }
  int64_t buffer_misses() const { return misses_; }
  int64_t pages_stolen() const { return pages_stolen_; }
  int64_t dirty_writebacks() const { return dirty_writebacks_; }
  int64_t evictions() const { return evictions_; }
  /// The page most recently evicted (valid once evictions() > 0); lets the
  /// model-based policy tests check victim identity, not just counts.
  PageKey last_evicted() const { return last_evicted_; }
  void ResetStats();

 private:
  // (offset, length) runs of missing pages in a FetchRange scan.  Leased
  // from run_scratch_ per call and recycled, so steady-state scans never
  // allocate.
  using RangeRuns = std::vector<std::pair<int64_t, int64_t>>;

  void Touch(int32_t slot) { table_.Touch(slot, sched_.Now()); }
  /// Evicts the policy's victim; dirty pages are written back
  /// asynchronously (no-force).
  void EvictOne();
  /// Evicts until the resident set fits `limit`.
  void ShrinkResidentTo(int limit);
  /// Reserves min(want_pages, GrantablePages()) frames and evicts the
  /// resident pages that no longer fit; returns the grant (0, reserving
  /// nothing, when no page is grantable).
  int Grant(int want_pages);
  /// Steals frames from the registered victims (largest reservation first)
  /// until `needed` frames are unreserved or no victim can yield more.
  void StealFromVictims(int needed);
  /// Serves the FCFS memory queue as far as possible.
  void ServeMemoryQueue();

  RangeRuns* AcquireRunScratch();
  void ReleaseRunScratch(RangeRuns* runs);

  sim::Scheduler& sched_;
  BufferConfig config_;
  DiskArray& disks_;
  std::string name_;

  FrameTable table_;
  int reserved_ = 0;

  struct MemWaiter {
    int min_pages;
    int want_pages;
    int granted = 0;
    std::coroutine_handle<> handle;
  };
  sim::RingBuffer<MemWaiter*> mem_queue_;

  std::vector<MemoryVictim*> victims_;

  // Recycled FetchRange scratch vectors (owned raw pointers; leased out to
  // suspended scan frames, so ownership cannot live in the vector itself).
  std::vector<RangeRuns*> run_scratch_;

  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t pages_stolen_ = 0;
  int64_t dirty_writebacks_ = 0;
  int64_t evictions_ = 0;
  PageKey last_evicted_{0, 0};
};

}  // namespace pdblb

#endif  // PDBLB_BUFMGR_BUFFER_MANAGER_H_
