// Copyright 2026 the pdblb authors. MIT license.
//
// The load-balancing strategy family (paper Section 3).  Every strategy is
// two decisions, a degree of join parallelism and an order to take
// processors in:
//
//  Degree.  The isolated strategies take a fixed degree (R(p) tracing,
//  Fig. 1), p_su-opt (the cost model's single-user optimum), p_su-noIO
//  (formula 3.1), the CPU-adaptive p_mu-cpu (formula 3.2) or RateMatch's.
//  The integrated strategies (MIN-IO, MIN-IO-SUOPT, OPT-IO-CPU) take the
//  degree whose top-k selection of the AVAIL-MEMORY array avoids temporary
//  file I/O (formula 3.3), nearest a target: the smallest, the one nearest
//  p_su-opt, or the largest within p_mu-cpu.
//
//  Order.  RANDOM has none (it draws among the alive PEs), LUC takes the
//  least utilized CPUs, and LUM and the integrated strategies take the most
//  free memory (the control node's AVAIL-MEMORY array).
//
// One planner, LoadBalancingPolicy::Plan, makes both decisions and then the
// steps every strategy shares.  Formulas 3.1 and 3.2 and the hash-table size
// ceil(b * F) live in core/cost_model.h; formula 3.3 and RateMatch below.

#ifndef PDBLB_CORE_STRATEGIES_H_
#define PDBLB_CORE_STRATEGIES_H_

#include <memory>
#include <vector>

#include "common/config.h"
#include "core/control_node.h"
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
  /// Working-space pages each selected PE should reserve: its equal share
  /// of the hash table, ceil(hash_table_pages / degree).
  int pages_per_pe = 0;
  /// True when the overload degree cap (ControlNode::DegreeCap) bound this
  /// plan below what the strategy wanted; such queries are counted as
  /// queries_degraded on completion.
  bool degraded = false;
};

/// The planner of every strategy a StrategyConfig describes.
class LoadBalancingPolicy {
 public:
  explicit LoadBalancingPolicy(const StrategyConfig& config)
      : config_(config) {}

  /// Plans one join against the control node's current view: the
  /// strategy's degree, capped by the overload state, on that many PEs in
  /// the strategy's order, with an equal share of the hash table each.  The
  /// plan is booked at `control` (the LUC/LUM adaptive feedback).
  JoinPlan Plan(const JoinPlanRequest& request, ControlNode& control,
                sim::Rng& rng) const;

  /// Factory covering every StrategyConfig combination.
  static std::unique_ptr<LoadBalancingPolicy> Create(
      const StrategyConfig& config);

 private:
  StrategyConfig config_;
};

namespace internal {

/// Smallest k such that the k most memory-endowed PEs can jointly hold
/// `need` pages with min-free * k >= need (the MIN-IO criterion, formula
/// 3.3).  Returns 0 if no k in [1, limit] avoids temporary I/O.
int MinNoIoDegree(const std::vector<PeLoadInfo>& avail, int64_t need,
                  int limit);

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
