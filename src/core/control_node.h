// Copyright 2026 the pdblb authors. MIT license.
//
// The designated control node (paper Section 3): every PE periodically
// reports its CPU utilization and available memory; dynamic load-balancing
// strategies query this (slightly stale) global view when planning a join.
//
// The control node also implements the "adaptive variation" of LUC/LUM:
// when a join is scheduled on a set of PEs, their recorded CPU utilization
// is artificially bumped and their recorded free memory reduced, so that
// back-to-back joins do not herd onto the same processors while reports are
// stale.

#ifndef PDBLB_CORE_CONTROL_NODE_H_
#define PDBLB_CORE_CONTROL_NODE_H_

#include <cstddef>
#include <vector>

#include "common/config.h"
#include "common/units.h"

namespace pdblb {

/// Overload response level (see OverloadConfig in common/config.h for the
/// transition rules).  Ordered by severity.
enum class OverloadState {
  kNormal,    ///< Full plans, open admission.
  kDegraded,  ///< Join parallelism capped (plans marked degraded).
  kShedding,  ///< Additionally reject new complex queries at admission.
};

/// One PE's load as known to the control node.
struct PeLoadInfo {
  PeId pe = 0;
  double cpu_util = 0.0;        ///< [0, 1]
  int free_memory_pages = 0;    ///< AVAIL-MEMORY entry
  double disk_util = 0.0;       ///< [0, 1]
};

class ControlNode {
 public:
  ControlNode(int num_pes, bool adaptive_feedback);

  /// Periodic report from a PE (overwrites any adaptive adjustments).
  void Report(PeId pe, double cpu_util, int free_memory_pages,
              double disk_util);

  // --- failure / recovery (engine/faults.h) -------------------------------
  //
  // A crashed PE stops reporting and must stop receiving work: the planning
  // views below (averages, sorted arrays) cover only alive PEs, and RANDOM
  // draws among the PEs IsAlive accepts.  When no PE is down the views are
  // exactly the all-PE views — fault-free runs are untouched.

  /// Ingests a failure notification: the PE drops out of every planning view.
  void MarkDown(PeId pe);
  /// Ingests a recovery notification: the PE rejoins the planning views.
  /// The caller refreshes its load info with an initial optimistic report.
  void MarkUp(PeId pe);
  bool IsAlive(PeId pe) const { return alive_[static_cast<size_t>(pe)]; }
  int AliveCount() const { return num_pes() - down_count_; }

  // --- overload-adaptive degradation (OverloadConfig) ---------------------
  //
  // Fed once per control-report round by the cluster; pure bookkeeping (no
  // events, no RNG draws), and with the default-disabled config every query
  // below returns its fault-free constant, so plans are untouched.

  /// Installs the thresholds (done once, at cluster construction).
  void ConfigureOverload(const OverloadConfig& config) { overload_ = config; }
  /// One report round: classifies the system from the current avg alive-PE
  /// CPU utilization and the round's avg admission queue depth, and steps
  /// the normal/degraded/shedding state machine (with hysteresis).
  void NoteLoadRound(double avg_admission_queue);
  OverloadState overload_state() const { return overload_state_; }
  /// True while new complex queries should be rejected at admission.
  bool ShouldShed() const {
    return overload_state_ == OverloadState::kShedding;
  }
  /// Join-degree cap under the current state: `wanted` when normal,
  /// otherwise ceil(alive * 0.5) clamped to [1, wanted].
  int DegreeCap(int wanted) const;

  /// Average reported CPU utilization over alive PEs (u_cpu in formula
  /// 3.2).
  double AvgCpuUtilization() const;

  /// Average reported disk utilization over alive PEs (used by the
  /// RateMatch baseline, which works with averages only).
  double AvgDiskUtilization() const;

  const PeLoadInfo& info(PeId pe) const { return info_[pe]; }
  int num_pes() const { return static_cast<int>(info_.size()); }

  /// The AVAIL-MEMORY array: alive PEs sorted by free memory, descending
  /// (AVAIL-MEMORY[0] = most free memory), ties by PE id.
  std::vector<PeLoadInfo> AvailMemorySorted() const;

  /// Alive PEs sorted by CPU utilization, ascending (for LUC), ties by PE
  /// id.
  std::vector<PeLoadInfo> CpuSorted() const;

  /// Adaptive feedback: a join with `pages_per_pe` working space was placed
  /// on `pes`.  No-op if adaptive feedback is disabled.
  void NoteJoinScheduled(const std::vector<PeId>& pes, int pages_per_pe);

  /// Skew correction on top of NoteJoinScheduled, applied by the executor
  /// once the actual per-PE subjoin sizes are known (redistribution skew):
  /// `delta_pages` is the working space beyond the uniform estimate already
  /// booked, `work_multiple` the PE's tuple share relative to an equal split
  /// (1.0 = equal).  Rotates hotspots between back-to-back joins.  No-op if
  /// adaptive feedback is disabled.
  void NoteSubjoinSize(PeId pe, int delta_pages, double work_multiple);

 private:
  /// The load infos of alive PEs (all of them when nothing is down).
  std::vector<PeLoadInfo> AliveInfos() const;
  /// The mean of `field` over the alive PEs (0 when none is alive).
  double AliveMean(double PeLoadInfo::*field) const;

  std::vector<PeLoadInfo> info_;
  std::vector<bool> alive_;
  int down_count_ = 0;
  bool adaptive_feedback_;

  // Overload state machine (disabled unless overload_.enabled).
  OverloadConfig overload_;
  OverloadState overload_state_ = OverloadState::kNormal;
  int hot_rounds_ = 0;       ///< Consecutive rounds at/above enter pressure.
  int shed_hot_rounds_ = 0;  ///< Consecutive rounds at/above shed pressure.
  int cool_rounds_ = 0;      ///< Consecutive rounds below exit pressure.
};

}  // namespace pdblb

#endif  // PDBLB_CORE_CONTROL_NODE_H_
