// Copyright 2026 the pdblb authors. MIT license.
//
// Partially Preemptible Hash Join (PPHJ, after Pang/Carey/Livny [23]) —
// the memory-adaptive local join algorithm each join processor runs
// (paper Section 4, "Hash join processing"):
//
//  * both inputs are split into p = ceil(sqrt(F * b_A)) partitions, so any
//    single partition fits in p pages of memory;
//  * as many inner (A) partitions as possible are kept memory-resident for
//    direct probing; under memory pressure resident partitions are spilled
//    to temporary files on the local disks;
//  * outer (B) tuples whose partition is not resident are deferred to
//    temporary B partitions and joined at the end (read A partition, build,
//    read B partition, probe);
//  * the join starts only when its minimum working space (p pages) is
//    available — otherwise it waits in the buffer manager's FCFS memory
//    queue — and suspends if stolen below the minimum.
//
// The simulator models partitions as equal slices of the received input
// (uniform hashing, the paper's no-redistribution-skew assumption), which
// makes the spill/restore accounting exact without materializing tuples.

#ifndef PDBLB_JOIN_PPHJ_H_
#define PDBLB_JOIN_PPHJ_H_

#include <cstdint>

#include "bufmgr/buffer_manager.h"
#include "common/config.h"
#include "iosim/disk.h"
#include "join/local_join.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

/// One PPHJ instance = one join processor's share of one join query.
class Pphj : public LocalJoin, public MemoryVictim {
 public:
  Pphj(sim::Scheduler& sched, BufferManager& buffer, DiskArray& disks,
       sim::Resource& cpu, const CpuCosts& costs, double mips,
       LocalJoinParams params);
  ~Pphj() override;

  /// Waits in the FCFS memory queue until the minimum working space
  /// (p pages) is granted, then registers as a steal victim.
  sim::Task<> AcquireMemory() override;

  /// Consumes a batch of inner tuples: hash + insert CPU, spills resident
  /// partitions when the working space overflows.
  sim::Task<> InsertInnerBatch(int64_t tuples) override;

  /// Opportunistic growth (PPHJ keeps as much of A memory-resident as it
  /// can): grabs unconsumed buffer pages up to the planner's target.  Called
  /// on every batch; cheap when nothing is free.
  void TryGrow();

  /// Consumes a batch of outer tuples: probes the resident fraction
  /// directly, defers the rest to temporary B partitions.
  sim::Task<> ProbeBatch(int64_t tuples) override;

  /// Joins the disk-resident partitions (read A partition, rebuild, read B
  /// partition, probe).  Call after the outer input is exhausted.
  sim::Task<> CompleteProbe() override;

  /// Returns the working space to the buffer manager.  Idempotent.
  void Release() override;

  // --- MemoryVictim --------------------------------------------------------
  int StealPages(int wanted) override;
  int ReservedPages() const override { return reserved_pages_; }

  // --- introspection -------------------------------------------------------
  int num_partitions() const { return num_partitions_; }
  int resident_partitions() const { return resident_partitions_; }
  int min_pages() const { return min_pages_; }
  int64_t inner_tuples_received() const { return inner_received_; }
  /// Fraction of the inner input currently memory-resident.
  double ResidentFraction() const;
  int64_t temp_pages_written() const override { return temp_pages_written_; }
  int64_t temp_pages_read() const override { return temp_pages_read_; }
  int64_t direct_probes() const { return direct_probes_; }
  int64_t deferred_probes() const { return deferred_probes_; }

 private:
  int PagesForTuples(int64_t tuples) const;
  /// Spills resident partitions until the resident pages fit `limit`.
  /// Returns pages freed.  Writes are issued asynchronously.
  int SpillDownTo(int limit);
  /// Flushes accumulated temp-file appends in write batches.
  void FlushAppends(bool final_flush);
  /// Re-acquires the minimum working space after a deep steal.
  sim::Task<> EnsureMinimumMemory();

  sim::Scheduler& sched_;
  BufferManager& buffer_;
  DiskArray& disks_;
  sim::Resource& cpu_;
  CpuCosts costs_;
  double mips_;
  LocalJoinParams params_;

  int num_partitions_ = 1;
  int min_pages_ = 1;
  int reserved_pages_ = 0;
  bool acquired_ = false;
  bool released_ = false;

  int resident_partitions_ = 0;
  int64_t inner_received_ = 0;       // total inner tuples seen
  int64_t mem_inner_tuples_ = 0;     // tuples in resident partitions
  int64_t disk_inner_tuples_ = 0;    // tuples in spilled partitions
  int64_t disk_outer_tuples_ = 0;    // deferred outer tuples

  int64_t pending_append_pages_ = 0;  // buffered temp writes not yet issued
  int64_t next_temp_page_ = 0;

  int64_t temp_pages_written_ = 0;
  int64_t temp_pages_read_ = 0;
  int64_t direct_probes_ = 0;
  int64_t deferred_probes_ = 0;
};

}  // namespace pdblb

#endif  // PDBLB_JOIN_PPHJ_H_
