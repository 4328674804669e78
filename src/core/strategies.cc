// Copyright 2026 the pdblb authors. MIT license.

#include "core/strategies.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pdblb {

namespace internal {

int64_t OverflowPages(const std::vector<PeLoadInfo>& avail, int64_t need,
                      int k) {
  assert(k >= 1 && k <= static_cast<int>(avail.size()));
  int64_t min_free = avail[k - 1].free_memory_pages;
  return std::max<int64_t>(0, need - min_free * static_cast<int64_t>(k));
}

int MinNoIoDegree(const std::vector<PeLoadInfo>& avail, int64_t need,
                  int limit) {
  limit = std::min(limit, static_cast<int>(avail.size()));
  for (int k = 1; k <= limit; ++k) {
    if (OverflowPages(avail, need, k) == 0) return k;
  }
  return 0;
}

std::vector<int> AllNoIoDegrees(const std::vector<PeLoadInfo>& avail,
                                int64_t need, int limit) {
  limit = std::min(limit, static_cast<int>(avail.size()));
  std::vector<int> out;
  for (int k = 1; k <= limit; ++k) {
    if (OverflowPages(avail, need, k) == 0) out.push_back(k);
  }
  return out;
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

}  // namespace internal

namespace {

using internal::AllNoIoDegrees;
using internal::MinNoIoDegree;
using internal::MinOverflowDegree;

int PagesPerPe(int64_t need, int k) {
  return static_cast<int>((need + k - 1) / k);
}

std::vector<PeId> TopK(const std::vector<PeLoadInfo>& sorted, int k) {
  std::vector<PeId> pes;
  pes.reserve(k);
  for (int i = 0; i < k; ++i) pes.push_back(sorted[i].pe);
  return pes;
}

int DynamicCpuDegree(int psu_opt, double u, int num_pes) {
  u = std::clamp(u, 0.0, 1.0);
  int p = static_cast<int>(std::lround(psu_opt * (1.0 - u * u * u)));
  return std::clamp(p, 1, num_pes);
}

// Overload degree cap, applied by every strategy after it settled on a
// degree and before placement: a capped plan is marked degraded.  Identity
// while the control node is in the normal state (always, fault-free).
int ApplyOverloadCap(const ControlNode& control, int k, JoinPlan* plan) {
  int cap = control.DegreeCap(k);
  if (cap < k) {
    k = cap;
    plan->degraded = true;
  }
  return k;
}

}  // namespace

namespace internal {

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

namespace {

/// Isolated strategies: degree policy x selection policy.
class IsolatedPolicy : public LoadBalancingPolicy {
 public:
  explicit IsolatedPolicy(const StrategyConfig& config) : config_(config) {}

  JoinPlan Plan(const JoinPlanRequest& req, ControlNode& control,
                sim::Rng& rng) override {
    int p = 1;
    if (config_.fixed_degree > 0) {
      p = config_.fixed_degree;  // R(p) tracing (Fig. 1)
    } else {
      switch (config_.degree) {
        case DegreePolicyKind::kStaticSuOpt:
          p = req.psu_opt;
          break;
        case DegreePolicyKind::kStaticSuNoIO:
          p = req.psu_noio;
          break;
        case DegreePolicyKind::kDynamicCpu:
          p = DynamicCpuDegree(req.psu_opt, control.AvgCpuUtilization(),
                               req.num_pes);
          break;
        case DegreePolicyKind::kRateMatch:
          p = internal::RateMatchDegree(req, control.AvgCpuUtilization(),
                                        control.AvgDiskUtilization(),
                                        req.num_pes);
          break;
      }
    }
    // A crashed PE must receive no work: cap the degree by the alive count
    // (equal to num_pes in fault-free runs) — LUC/LUM placement draws from
    // the control node's alive-only sorted views below.
    p = std::clamp(p, 1, std::min(req.num_pes, control.AliveCount()));

    JoinPlan plan;
    p = ApplyOverloadCap(control, p, &plan);
    plan.degree = p;
    switch (config_.selection) {
      case SelectionPolicyKind::kRandom:
        if (control.AnyDown()) {
          // Sample positions among alive PEs only.  The fault-free path
          // keeps the historical draw (same RNG stream, bit-identical).
          std::vector<PeId> alive;
          alive.reserve(static_cast<size_t>(control.AliveCount()));
          for (PeId pe = 0; pe < req.num_pes; ++pe) {
            if (control.IsAlive(pe)) alive.push_back(pe);
          }
          for (PeId i :
               rng.SampleWithoutReplacement(static_cast<int>(alive.size()),
                                            p)) {
            plan.pes.push_back(alive[static_cast<size_t>(i)]);
          }
        } else {
          plan.pes = rng.SampleWithoutReplacement(req.num_pes, p);
        }
        break;
      case SelectionPolicyKind::kLUC:
        plan.pes = TopK(control.CpuSorted(), p);
        break;
      case SelectionPolicyKind::kLUM:
        plan.pes = TopK(control.AvailMemorySorted(), p);
        break;
    }
    plan.pages_per_pe = PagesPerPe(req.hash_table_pages, p);
    control.NoteJoinScheduled(plan.pes, plan.pages_per_pe);
    return plan;
  }

  std::string Name() const override { return config_.Name(); }

 private:
  StrategyConfig config_;
};

/// MIN-IO (formula 3.3): minimal degree avoiding temporary file I/O, LUM
/// placement; ignores CPU utilization.
class MinIoPolicy : public LoadBalancingPolicy {
 public:
  JoinPlan Plan(const JoinPlanRequest& req, ControlNode& control,
                sim::Rng&) override {
    auto avail = control.AvailMemorySorted();
    int k = MinNoIoDegree(avail, req.hash_table_pages, req.num_pes);
    if (k == 0) {
      k = MinOverflowDegree(avail, req.hash_table_pages, req.num_pes,
                            /*prefer_larger=*/false);
    }
    JoinPlan plan;
    k = ApplyOverloadCap(control, k, &plan);
    plan.degree = k;
    plan.pes = TopK(avail, k);
    plan.pages_per_pe = PagesPerPe(req.hash_table_pages, k);
    control.NoteJoinScheduled(plan.pes, plan.pages_per_pe);
    return plan;
  }
  std::string Name() const override { return "MIN-IO"; }
};

/// MIN-IO-SUOPT: among all no-I/O degrees, the one closest to p_su-opt.
class MinIoSuOptPolicy : public LoadBalancingPolicy {
 public:
  JoinPlan Plan(const JoinPlanRequest& req, ControlNode& control,
                sim::Rng&) override {
    auto avail = control.AvailMemorySorted();
    auto candidates = AllNoIoDegrees(avail, req.hash_table_pages, req.num_pes);
    int k;
    if (!candidates.empty()) {
      k = candidates.front();
      int best_dist = std::abs(k - req.psu_opt);
      for (int c : candidates) {
        int dist = std::abs(c - req.psu_opt);
        // Ties favor the higher degree (more CPU parallelism).
        if (dist < best_dist || (dist == best_dist && c > k)) {
          best_dist = dist;
          k = c;
        }
      }
    } else {
      // No selection avoids temp I/O: minimize overflow; ties favor more
      // parallelism so that concurrent joins can share per-PE buffers.
      k = MinOverflowDegree(avail, req.hash_table_pages, req.num_pes,
                            /*prefer_larger=*/true);
    }
    JoinPlan plan;
    k = ApplyOverloadCap(control, k, &plan);
    plan.degree = k;
    plan.pes = TopK(avail, k);
    plan.pages_per_pe = PagesPerPe(req.hash_table_pages, k);
    control.NoteJoinScheduled(plan.pes, plan.pages_per_pe);
    return plan;
  }
  std::string Name() const override { return "MIN-IO-SUOPT"; }
};

/// OPT-IO-CPU: degree capped by p_mu-cpu; within the cap, the largest degree
/// avoiding temporary I/O (or minimizing it), LUM placement.
class OptIoCpuPolicy : public LoadBalancingPolicy {
 public:
  JoinPlan Plan(const JoinPlanRequest& req, ControlNode& control,
                sim::Rng&) override {
    int limit = DynamicCpuDegree(req.psu_opt, control.AvgCpuUtilization(),
                                 req.num_pes);
    auto avail = control.AvailMemorySorted();
    auto candidates = AllNoIoDegrees(avail, req.hash_table_pages, limit);
    int k = candidates.empty()
                ? MinOverflowDegree(avail, req.hash_table_pages, limit,
                                    /*prefer_larger=*/true)
                : candidates.back();
    JoinPlan plan;
    k = ApplyOverloadCap(control, k, &plan);
    plan.degree = k;
    plan.pes = TopK(avail, k);
    plan.pages_per_pe = PagesPerPe(req.hash_table_pages, k);
    control.NoteJoinScheduled(plan.pes, plan.pages_per_pe);
    return plan;
  }
  std::string Name() const override { return "OPT-IO-CPU"; }
};

}  // namespace

std::unique_ptr<LoadBalancingPolicy> LoadBalancingPolicy::Create(
    const StrategyConfig& config) {
  switch (config.integrated) {
    case IntegratedPolicyKind::kMinIO:
      return std::make_unique<MinIoPolicy>();
    case IntegratedPolicyKind::kMinIOSuOpt:
      return std::make_unique<MinIoSuOptPolicy>();
    case IntegratedPolicyKind::kOptIOCpu:
      return std::make_unique<OptIoCpuPolicy>();
    case IntegratedPolicyKind::kNone:
      return std::make_unique<IsolatedPolicy>(config);
  }
  return nullptr;
}

}  // namespace pdblb
