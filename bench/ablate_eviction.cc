// Copyright 2026 the pdblb authors. MIT license.
//
// Eviction-policy ablation on the paper's memory-bound environment (Fig. 7
// shape: tiny per-PE buffer, one disk per PE) with a debit-credit OLTP
// stream on every node.  Sweeps replacement policy x buffer size x hot-set
// skew: the OLTP class concentrates `hot_access_fraction` of its tuple
// accesses on 22 hot pages, so what the pool keeps resident under pressure
// — and therefore the hit ratio, the eviction rate and the "available
// memory" the control node sees — is decided by the policy.
//
// Point names are "bufmgr/<policy>/h<skew>/<pages>" so --filter=/lru/ (note
// the trailing slash — "/lru-k/" is a different policy) selects one policy's
// sub-grid; CI compares the CSV bytes across --jobs per policy.
// Run with --report-json=BENCH_bufmgr.json for the artifact.

#include "bench/bench_common.h"

namespace {

using namespace pdblb;
using bench::ApplyHorizon;

SystemConfig MemoryBoundSkewed(int pages, double hot_frac,
                               EvictionPolicyKind policy) {
  SystemConfig cfg;
  cfg.num_pes = 20;
  cfg.buffer.buffer_pages = pages;
  cfg.buffer.eviction = policy;
  cfg.disk.disks_per_pe = 1;  // 1 disk per PE, as in fig7
  cfg.join_query.arrival_rate_per_pe_qps = 0.025;
  cfg.strategy = strategies::PmuCpuLUM();
  // Debit-credit OLTP on every node: the hot 22 pages are the working set
  // the policy should learn to keep.
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kAllNodes;
  cfg.oltp.tps_per_node = 10.0;
  cfg.oltp.hot_access_fraction = hot_frac;
  ApplyHorizon(cfg);
  return cfg;
}

void Setup(bench::Figure& fig) {
  fig.SetTitle(
      "Eviction ablation — fig7 memory-bound shape + skewed OLTP (20 PE)",
      "buf pages");

  const EvictionPolicyKind policies[] = {
      EvictionPolicyKind::kLru, EvictionPolicyKind::kLruK,
      EvictionPolicyKind::kLfu, EvictionPolicyKind::kClock};
  // Buffer sizes straddle the 22-page hot set; skews range from mild to
  // debit-credit extreme.
  const int sizes[] = {5, 10, 25};
  const double skews[] = {0.5, 0.85, 0.95};

  for (EvictionPolicyKind policy : policies) {
    const std::string pname = EvictionPolicyName(policy);
    for (double skew : skews) {
      const std::string series = pname + " h=" + TextTable::Num(skew, 2);
      for (int pages : sizes) {
        fig.AddPoint(
            "bufmgr/" + pname + "/h" + TextTable::Num(skew, 2) + "/" +
                std::to_string(pages),
            MemoryBoundSkewed(pages, skew, policy), series, pages,
            std::to_string(pages));
      }
    }
  }
}

}  // namespace

PDBLB_BENCH_MAIN(Setup)
