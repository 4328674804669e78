// Copyright 2026 the pdblb authors. MIT license.
//
// Ablation — query/update concurrency control (paper footnote 1): join
// queries on A/B run concurrently with update statements on A under three
// schemes: the paper's base partitioned-workload assumption (no read
// locks), strict 2PL for everyone (queries take long page-level read
// locks), and multiversion CC (snapshot reads, version maintenance on
// updates).
//
// Expected shape: join response times under 2PL climb with the update rate
// (lock waits on the scanned ranges); multiversion keeps joins near the
// baseline at a modest, rate-independent surcharge on the updaters — the
// trade the paper's footnote anticipates.

#include "bench/bench_common.h"

namespace {

using namespace pdblb;
using bench::ApplyHorizon;

std::string SchemeName(CcScheme s) {
  switch (s) {
    case CcScheme::kNoReadLocks:
      return "no read locks";
    case CcScheme::kTwoPhaseLocking:
      return "strict 2PL";
    case CcScheme::kMultiversion:
      return "multiversion";
  }
  return "?";
}

void Setup(bench::Figure& fig) {
  fig.SetTitle(
      "Ablation — concurrency control for read-only queries "
      "(20 PE, joins 0.1 QPS/PE + updates on A)",
      "updates QPS/PE");

  const std::vector<double> update_rates = {0.0, 0.1, 0.2, 0.4};
  for (double rate : update_rates) {
    for (auto scheme : {CcScheme::kNoReadLocks, CcScheme::kTwoPhaseLocking,
                        CcScheme::kMultiversion}) {
      SystemConfig cfg;
      cfg.num_pes = 20;
      cfg.cc_scheme = scheme;
      cfg.strategy = strategies::PmuCpuLUM();
      cfg.join_query.arrival_rate_per_pe_qps = 0.10;
      if (rate > 0.0) {
        cfg.update_query.relation = TargetRelation::kA;
        cfg.update_query.selectivity = 0.02;
        cfg.update_query.arrival_rate_per_pe_qps = rate;
      }
      ApplyHorizon(cfg);
      char label[16];
      std::snprintf(label, sizeof(label), "%.1f", rate);
      fig.AddPoint("cc/" + SchemeName(scheme) + "/" + label, cfg,
                    SchemeName(scheme), rate, label);
    }
  }
}

}  // namespace

PDBLB_BENCH_MAIN(Setup)
