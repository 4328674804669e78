// Copyright 2026 the pdblb authors. MIT license.
//
// Fault injection and recovery: multi-user join workload under random PE
// crash/repair cycles, sweeping the failure rate (crashes per PE per
// minute) against the load-balancing strategy and the multiprogramming
// level.  Queries that touch a failed PE are cancelled and retried with
// capped exponential backoff; every query also carries a deadline, so
// overlong retry chains surface as timeouts instead of hanging.
//
// What to look for: dynamic strategies (OPT-IO-CPU and LUM placement)
// degrade gracefully — the control node drops crashed PEs from the
// planning views, so new joins route around them and throughput tracks the
// alive capacity; RANDOM placement pays an extra retry tax because it
// keeps a uniform draw over the alive set but cannot avoid in-flight
// losses.  Higher MPL softens the per-crash throughput dip (more admitted
// work survives on the remaining PEs) at the price of longer retry
// backlogs.  The queries_* CSV columns quantify all of this.
//
// Everything is deterministic per seed: fault timing comes from a
// dedicated RNG stream, so the CSV is bit-identical across --jobs
// (CI-enforced with faults enabled).

#include "bench/bench_common.h"

namespace {

using namespace pdblb;
using bench::ApplyHorizon;

void Setup(bench::Figure& fig) {
  fig.SetTitle(
      "Fault injection — PE crash/repair cycles vs. strategy and MPL "
      "(20 PE, 0.25 QPS/PE)",
      "crashes/PE/min");

  // Crashes per PE per minute.  At 20 PEs even the low rate yields several
  // crash/repair cycles per measurement window; the high rate keeps a
  // couple of PEs down on average.
  const std::vector<double> rates = bench::FastMode()
                                        ? std::vector<double>{0.0, 1.0}
                                        : std::vector<double>{0.0, 0.5, 1.0,
                                                              2.0};
  const std::vector<std::pair<std::string, StrategyConfig>> strategy_set = {
      {"p_su-opt+RANDOM", strategies::PsuOptRandom()},
      {"p_su-opt+LUM", strategies::PsuOptLUM()},
      {"OPT-IO-CPU", strategies::OptIOCpu()},
  };
  const std::vector<int> mpls = bench::FastMode() ? std::vector<int>{8}
                                                  : std::vector<int>{4, 8, 16};

  for (double rate : rates) {
    for (const auto& [name, strategy] : strategy_set) {
      for (int mpl : mpls) {
        SystemConfig cfg;
        cfg.num_pes = 20;
        cfg.strategy = strategy;
        cfg.multiprogramming_level = mpl;
        ApplyHorizon(cfg);
        cfg.faults.crash_rate_per_pe_per_min = rate;
        cfg.faults.mttr_ms = 2000.0;
        cfg.faults.query_timeout_ms = 8000.0;
        // Retry budget sized to outlive one repair (~2 s): backoffs
        // 100+200+400+800+1000 ms, so a query hit by a crash usually
        // completes degraded after recovery instead of failing.
        cfg.faults.retry.max_attempts = 6;
        cfg.faults.retry.initial_backoff_ms = 100.0;
        char rate_label[16];
        std::snprintf(rate_label, sizeof(rate_label), "%.1f", rate);
        fig.AddPoint("fault_recovery/" + name + "/mpl" +
                         std::to_string(mpl) + "/" + rate_label,
                     cfg, name + " mpl=" + std::to_string(mpl), rate,
                     rate_label);
      }
    }
  }
}

}  // namespace

PDBLB_BENCH_MAIN(Setup)
