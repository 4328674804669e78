// Copyright 2026 the pdblb authors. MIT license.
//
// Disk subsystem of one PE (paper Section 4): an array of FCFS disk servers
// behind a controller with an LRU disk cache and a prefetching mechanism for
// sequential access patterns, plus a dedicated log disk.
//
// Timing model (paper parameter table):
//  * physical access: 15 ms base + 1 ms per (pre)fetched page
//  * controller service: 1 ms per page
//  * transmission: 0.4 ms per page
//  * a sequential cache miss prefetches `prefetch_pages` pages into the
//    controller cache, so 4-page prefetch costs 19 ms of disk time and later
//    references to the prefetched pages cost only controller + transmission.
// The CPU overhead per I/O operation (3000 instructions) is charged on the
// owning PE's CPU.
//
// The controller cache is a FrameTable (bufmgr/frame_table.h), the page
// table that also holds the database buffer, with the LRU policy and
// `disk_cache_pages` slots.

#ifndef PDBLB_IOSIM_DISK_H_
#define PDBLB_IOSIM_DISK_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bufmgr/frame_table.h"
#include "catalog/relation.h"
#include "common/config.h"
#include "simkern/resource.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"
#include "simkern/task_group.h"

namespace pdblb {

enum class AccessPattern {
  kRandom,      ///< Point access (OLTP index/data reads): no prefetch.
  kSequential,  ///< Scan / temp-file access: prefetching enabled.
};

/// The disk array of a single processing element — or, in Shared Disk mode,
/// one PE's *view* of the globally shared spindles (see the facade
/// constructor below).
class DiskArray {
 public:
  /// `tag` attributes this array's disk/controller/log wake-ups and page
  /// transmissions in event traces (typically TraceTag(kDisk, pe_id)).
  DiskArray(sim::Scheduler& sched, const DiskConfig& config,
            const CpuCosts& costs, double mips, sim::Resource& cpu,
            std::string name,
            sim::TraceTag tag = sim::TraceTag(sim::TraceSubsystem::kDisk));

  /// Shared Disk facade: this array serves I/O from the *same spindles* as
  /// `master` (the global pool of the storage subsystem), while the per-I/O
  /// CPU overhead, the controller with its disk cache, and the log disk
  /// stay local to this PE (its storage adapter).  All facades observe and
  /// generate contention on the shared spindles.
  DiskArray(sim::Scheduler& sched, const DiskConfig& config,
            const CpuCosts& costs, double mips, sim::Resource& cpu,
            std::string name, DiskArray& master,
            sim::TraceTag tag = sim::TraceTag(sim::TraceSubsystem::kDisk));

  /// Reads one page.  Sequential reads prefetch into the controller cache.
  sim::Task<> Read(PageKey page, AccessPattern pattern);

  /// Reads `count` consecutive pages of a declustered partition: prefetch
  /// batches are issued concurrently across the disk array (the paper's
  /// horizontal declustering over disks), so a long sequential scan is
  /// limited by the array, not a single spindle.  Cached pages are served
  /// from the controller cache.
  sim::Task<> ReadStriped(PageKey first, int64_t count);

  /// Writes `count` consecutive pages starting at `first` as one batch
  /// (sequential temp-file write).  Written pages enter the cache.
  sim::Task<> WriteBatch(PageKey first, int count);

  /// Writes one page at a random position (buffer-manager page cleaning).
  sim::Task<> WriteRandom(PageKey page);

  /// Appends one record batch to the local log (OLTP commit).
  sim::Task<> LogWrite();

  // --- fault injection (engine/faults.h) ----------------------------------
  /// Arms transient I/O errors: every physical access draws from `rng` (a
  /// dedicated per-PE fork of the root seed) and fails with probability
  /// `error_rate`; a failed access is retried with a fixed 5 ms service
  /// charge, at most 3 times per access (a chain that exhausts the budget
  /// surfaces the final error without another reissue, so io_errors() >=
  /// io_retries() always).  Never armed on the fault-free path: zero
  /// draws, zero extra awaits.
  void ConfigureFaults(double error_rate, sim::Rng rng);

  /// Slow-disk mode: multiplies every physical disk/log service time by
  /// `m` (>= 1); 1.0 restores normal speed.  In Shared Disk mode the
  /// multiplier is per-facade: it models this PE's degraded storage
  /// adapter path to the shared spindles.
  void SetServiceMultiplier(double m);

  int64_t io_errors() const { return io_errors_; }
  int64_t io_retries() const { return io_retries_; }
  /// Extra service time injected by the slow-disk multiplier.
  double slow_disk_extra_ms() const { return slow_disk_extra_ms_; }

  // --- introspection ------------------------------------------------------
  int num_disks() const { return static_cast<int>(disks_.size()); }
  /// Busy-time integral summed over data disks (for windowed utilization).
  double DataDiskBusyIntegral() const;

  int64_t physical_reads() const { return physical_reads_; }
  int64_t physical_writes() const { return physical_writes_; }
  int64_t cache_hits() const { return cache_hits_; }
  int64_t logical_reads() const { return logical_reads_; }

  void ResetStats();

 private:
  sim::Resource& DiskFor(PageKey page);
  /// Controller-cache probe for one page request: on a hit, refreshes the
  /// page's LRU position and returns true.
  bool CacheHit(PageKey page);
  /// Caches a page just read or written: refreshes it if cached, otherwise
  /// admits it, evicting the least recently used page when full.
  void CacheInsert(PageKey page);
  /// One prefetch batch: disk access plus controller service.
  sim::Task<> ReadBatchFromDisk(PageKey first, int pages);
  /// Applies the slow-disk multiplier to a physical service time and
  /// accounts the injected extra.  Exact identity when the mode is off.
  double Scaled(double service_ms);
  /// Transient-error draw/retry chain after one physical access; only ever
  /// awaited when ConfigureFaults armed the RNG.
  sim::Task<> InjectedRetries(sim::Resource& disk);

  sim::Scheduler& sched_;
  DiskConfig config_;
  CpuCosts costs_;
  double mips_;
  sim::Resource& cpu_;
  std::string name_;
  sim::TraceTag tag_;

  std::vector<std::shared_ptr<sim::Resource>> disks_;  // shared in SD mode
  std::unique_ptr<sim::Resource> controller_;
  std::unique_ptr<sim::Resource> log_disk_;

  // LRU controller cache; capacity 0 disables it.
  FrameTable cache_{EvictionPolicyKind::kLru,
                    std::max(0, config_.disk_cache_pages)};

  int64_t physical_reads_ = 0;
  int64_t physical_writes_ = 0;
  int64_t cache_hits_ = 0;
  int64_t logical_reads_ = 0;

  // Fault state: unset/1.0 on the fault-free path.
  std::optional<sim::Rng> fault_rng_;
  double io_error_rate_ = 0.0;
  double service_multiplier_ = 1.0;
  int64_t io_errors_ = 0;
  int64_t io_retries_ = 0;
  double slow_disk_extra_ms_ = 0.0;
};

}  // namespace pdblb

#endif  // PDBLB_IOSIM_DISK_H_
