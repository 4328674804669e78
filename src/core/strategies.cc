// Copyright 2026 the pdblb authors. MIT license.

#include "core/strategies.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "core/cost_model.h"

namespace pdblb {

namespace {

/// The degree in [1, limit] nearest `target` (ties to the larger) whose
/// top-k selection of `avail` avoids temporary I/O; 0 if none does.
int NoIoDegreeNearest(const std::vector<PeLoadInfo>& avail, int64_t need,
                      int limit, int target) {
  limit = std::min(limit, static_cast<int>(avail.size()));
  int best = 0;
  // k ascends: once `best` reached the target, no later k is nearer.
  for (int k = 1; k <= limit && best < target; ++k) {
    if (internal::OverflowPages(avail, need, k) == 0 &&
        (best == 0 || std::abs(k - target) <= std::abs(best - target))) {
      best = k;
    }
  }
  return best;
}

/// An isolated strategy's degree.  A crashed PE must receive no work, so it
/// is capped by the alive count (num_pes in fault-free runs).
int IsolatedDegree(const StrategyConfig& config, const JoinPlanRequest& req,
                   const ControlNode& control) {
  int p = 1;
  if (config.fixed_degree > 0) {
    p = config.fixed_degree;  // R(p) tracing (Fig. 1)
  } else {
    switch (config.degree) {
      case DegreePolicyKind::kStaticSuOpt:
        p = req.psu_opt;
        break;
      case DegreePolicyKind::kStaticSuNoIO:
        p = req.psu_noio;
        break;
      case DegreePolicyKind::kDynamicCpu:
        p = PmuCpu(req.psu_opt, control.AvgCpuUtilization(), req.num_pes);
        break;
      case DegreePolicyKind::kRateMatch:
        p = internal::RateMatchDegree(req, control.AvgCpuUtilization(),
                                      control.AvgDiskUtilization(),
                                      req.num_pes);
        break;
    }
  }
  return std::clamp(p, 1, std::min(req.num_pes, control.AliveCount()));
}

/// An integrated strategy's degree on the AVAIL-MEMORY array `avail`: the
/// no-I/O degree nearest its target within its limit.  When no selection
/// avoids temporary I/O, the degree minimizing the overflow: MIN-IO takes
/// the smallest such degree, the other two the largest, so that concurrent
/// joins can share per-PE buffers.
int IntegratedDegree(IntegratedPolicyKind kind, const JoinPlanRequest& req,
                     const ControlNode& control,
                     const std::vector<PeLoadInfo>& avail) {
  int limit = req.num_pes;
  int target = 1;  // MIN-IO: the smallest no-I/O degree
  if (kind == IntegratedPolicyKind::kMinIOSuOpt) {
    target = req.psu_opt;
  } else if (kind == IntegratedPolicyKind::kOptIOCpu) {
    // The largest no-I/O degree within p_mu-cpu.
    limit = PmuCpu(req.psu_opt, control.AvgCpuUtilization(), req.num_pes);
    target = limit;
  }
  int k = NoIoDegreeNearest(avail, req.hash_table_pages, limit, target);
  if (k == 0) {
    k = internal::MinOverflowDegree(
        avail, req.hash_table_pages, limit,
        /*prefer_larger=*/kind != IntegratedPolicyKind::kMinIO);
  }
  return k;
}

}  // namespace

namespace internal {

int64_t OverflowPages(const std::vector<PeLoadInfo>& avail, int64_t need,
                      int k) {
  assert(k >= 1 && k <= static_cast<int>(avail.size()));
  int64_t min_free = avail[k - 1].free_memory_pages;
  return std::max<int64_t>(0, need - min_free * static_cast<int64_t>(k));
}

int MinNoIoDegree(const std::vector<PeLoadInfo>& avail, int64_t need,
                  int limit) {
  return NoIoDegreeNearest(avail, need, limit, /*target=*/1);
}

int MinOverflowDegree(const std::vector<PeLoadInfo>& avail, int64_t need,
                      int limit, bool prefer_larger) {
  limit = std::min(limit, static_cast<int>(avail.size()));
  assert(limit >= 1);
  int best_k = 1;
  int64_t best_overflow = OverflowPages(avail, need, 1);
  for (int k = 2; k <= limit; ++k) {
    int64_t overflow = OverflowPages(avail, need, k);
    bool better = prefer_larger ? overflow <= best_overflow
                                : overflow < best_overflow;
    if (better) {
      best_overflow = overflow;
      best_k = k;
    }
  }
  return best_k;
}

int RateMatchDegree(const JoinPlanRequest& req, double u_cpu, double u_disk,
                    int num_pes) {
  if (req.join_rate_tps <= 0.0 || req.scan_rate_tps <= 0.0) return 1;
  // Floor the derating factors: a saturated system must not divide by zero.
  constexpr double kMinHeadroom = 0.05;
  double headroom = std::max(kMinHeadroom, (1.0 - std::clamp(u_cpu, 0.0, 1.0)) *
                                               (1.0 - std::clamp(u_disk, 0.0,
                                                                 1.0)));
  double effective_rate = req.join_rate_tps * headroom;
  int p = static_cast<int>(std::ceil(req.scan_rate_tps / effective_rate));
  return std::clamp(p, 1, num_pes);
}

}  // namespace internal

JoinPlan LoadBalancingPolicy::Plan(const JoinPlanRequest& req,
                                   ControlNode& control,
                                   sim::Rng& rng) const {
  const bool integrated = config_.integrated != IntegratedPolicyKind::kNone;
  const bool random =
      !integrated && config_.selection == SelectionPolicyKind::kRandom;
  // The order to take processors in, over the alive PEs; none for RANDOM.
  std::vector<PeLoadInfo> order;
  if (integrated || config_.selection == SelectionPolicyKind::kLUM) {
    order = control.AvailMemorySorted();
  } else if (config_.selection == SelectionPolicyKind::kLUC) {
    order = control.CpuSorted();
  }
  int k = integrated ? IntegratedDegree(config_.integrated, req, control, order)
                     : IsolatedDegree(config_, req, control);

  JoinPlan plan;
  // The overload degree cap; the identity while the control node is in the
  // normal state (always, fault-free).
  const int cap = control.DegreeCap(k);
  if (cap < k) {
    k = cap;
    plan.degraded = true;
  }
  plan.degree = k;
  if (random) {
    // k distinct positions among the alive PEs, in id order.
    std::vector<PeId> alive;
    alive.reserve(static_cast<size_t>(control.AliveCount()));
    for (PeId pe = 0; pe < control.num_pes(); ++pe) {
      if (control.IsAlive(pe)) alive.push_back(pe);
    }
    plan.pes = rng.SampleWithoutReplacement(static_cast<int>(alive.size()), k);
    for (PeId& pe : plan.pes) pe = alive[static_cast<size_t>(pe)];
  } else {
    plan.pes.reserve(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) plan.pes.push_back(order[i].pe);
  }
  plan.pages_per_pe = static_cast<int>((req.hash_table_pages + k - 1) / k);
  control.NoteJoinScheduled(plan.pes, plan.pages_per_pe);
  return plan;
}

std::unique_ptr<LoadBalancingPolicy> LoadBalancingPolicy::Create(
    const StrategyConfig& config) {
  return std::make_unique<LoadBalancingPolicy>(config);
}

}  // namespace pdblb
