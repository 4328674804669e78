// Copyright 2026 the pdblb authors. MIT license.
//
// The load-balancing strategy family (paper Section 3):
//
//  Isolated strategies determine the degree of join parallelism first
//  (p_su-opt, p_su-noIO, or the CPU-adaptive p_mu-cpu) and then select that
//  many join processors with RANDOM, LUC (least utilized CPUs) or LUM
//  (least utilized memory = most free memory).
//
//  Integrated strategies (MIN-IO, MIN-IO-SUOPT, OPT-IO-CPU) determine the
//  degree *and* the placement in one step from the control node's
//  AVAIL-MEMORY array, trying to avoid (or minimize) temporary file I/O.

#ifndef PDBLB_CORE_STRATEGIES_H_
#define PDBLB_CORE_STRATEGIES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/control_node.h"
#include "core/cost_model.h"
#include "simkern/rng.h"

namespace pdblb {

/// Everything a policy may consult when planning one join.
struct JoinPlanRequest {
  /// Hash-table pages needed for the whole inner input: ceil(b_i * F).
  int64_t hash_table_pages = 0;
  int psu_opt = 1;   ///< Single-user optimum from the cost model.
  int psu_noio = 1;  ///< Formula (3.1).
  int num_pes = 1;
  /// Single-user production/consumption rates for the RateMatch baseline
  /// (CostModel::ScanProductionRateTps / JoinConsumptionRateTps).
  double scan_rate_tps = 0.0;
  double join_rate_tps = 0.0;
};

/// The outcome: degree of join parallelism and the selected processors.
struct JoinPlan {
  int degree = 1;
  std::vector<PeId> pes;
  /// Working-space pages each selected PE should reserve (the per-PE share
  /// of the hash table, capped by what the planner believed was free).
  int pages_per_pe = 0;
  /// True when the overload degree cap (ControlNode::DegreeCap) bound this
  /// plan below what the strategy wanted; such queries are counted as
  /// queries_degraded on completion.
  bool degraded = false;
};

/// Interface of all nine strategies.
class LoadBalancingPolicy {
 public:
  virtual ~LoadBalancingPolicy() = default;

  /// Plans one join against the control node's current view.  Implementations
  /// apply the LUC/LUM adaptive feedback to `control` themselves.
  virtual JoinPlan Plan(const JoinPlanRequest& request, ControlNode& control,
                        sim::Rng& rng) = 0;

  virtual std::string Name() const = 0;

  /// Factory covering every StrategyConfig combination.
  static std::unique_ptr<LoadBalancingPolicy> Create(
      const StrategyConfig& config);
};

namespace internal {

/// Smallest k such that the k most memory-endowed PEs can jointly hold
/// `need` pages with min-free * k >= need (the MIN-IO criterion, formula
/// 3.3).  Returns 0 if no k in [1, limit] avoids temporary I/O.
int MinNoIoDegree(const std::vector<PeLoadInfo>& avail, int64_t need,
                  int limit);

/// All k in [1, limit] whose top-k selection avoids temporary I/O.
std::vector<int> AllNoIoDegrees(const std::vector<PeLoadInfo>& avail,
                                int64_t need, int limit);

/// Overflow pages if the top-k selection is used: max(0, need - minfree*k).
int64_t OverflowPages(const std::vector<PeLoadInfo>& avail, int64_t need,
                      int k);

/// k in [1, limit] minimizing overflow; ties broken toward `prefer_larger` ?
/// the largest : the smallest such k.
int MinOverflowDegree(const std::vector<PeLoadInfo>& avail, int64_t need,
                      int limit, bool prefer_larger);

/// RateMatch degree (Mehta & DeWitt [20]): smallest p whose aggregate
/// derated consumption rate matches the scan production rate.  Grows with
/// the average CPU/disk utilization; ignores memory.
int RateMatchDegree(const JoinPlanRequest& req, double u_cpu, double u_disk,
                    int num_pes);

}  // namespace internal
}  // namespace pdblb

#endif  // PDBLB_CORE_STRATEGIES_H_
