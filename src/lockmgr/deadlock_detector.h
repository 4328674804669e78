// Copyright 2026 the pdblb authors. MIT license.
//
// Central global deadlock detection (paper Section 4: "Global deadlocks are
// resolved by a central deadlock detection scheme").  A designated node
// periodically collects the wait-for edges of every PE's lock table, builds
// the global wait-for graph, and aborts the youngest transaction on each
// cycle.

#ifndef PDBLB_LOCKMGR_DEADLOCK_DETECTOR_H_
#define PDBLB_LOCKMGR_DEADLOCK_DETECTOR_H_

#include <vector>

#include "common/units.h"
#include "lockmgr/lock_manager.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

class DeadlockDetector {
 public:
  /// `lock_managers` must outlive the detector.
  DeadlockDetector(sim::Scheduler& sched,
                   std::vector<LockManager*> lock_managers);

  /// Runs one detection pass: returns the victims aborted (may be empty).
  std::vector<TxnId> DetectAndResolve();

  /// Background process: runs DetectAndResolve once a second until the
  /// scheduler shuts down.  Spawn with Scheduler::Spawn.
  sim::Task<> Run();

  /// Finds all transactions on cycles in `edges`; exposed for testing.
  static std::vector<TxnId> FindCycleVictims(
      const std::vector<WaitForEdge>& edges);

 private:
  sim::Scheduler& sched_;
  std::vector<LockManager*> lock_managers_;
};

}  // namespace pdblb

#endif  // PDBLB_LOCKMGR_DEADLOCK_DETECTOR_H_
