// Copyright 2026 the pdblb authors. MIT license.
//
// Chaos harness: all three gray-failure domains composed from one seed,
// sweeping a single fault-intensity knob against the strategy.  Each
// intensity level i layers, on top of the same base workload:
//
//   * transient disk errors  (iorate = 1% * i, driver retries absorb them)
//   * a slow-disk window     (pe1 serves at x(1+i) from t=2.0s to t=4.5s)
//   * a degraded link        (pe4<->pe5 wire delay x(1+i) from t=2.0s)
//   * a network partition    (pe0<->pe3 cut t=2.5s..3.8s; spanning attempts
//                             cancel and retry, i >= 2 only)
//   * a PE crash/repair      (pe2 down t=3.0s..4.2s, i >= 3 only)
//   * overload shedding      (arrival rate scales with i while the degrade/
//                             shed thresholds tighten, so high intensity
//                             visibly sheds and degrades instead of piling
//                             up unbounded admission queues)
//
// Intensity 0 is the fault-free baseline: it takes the exact pre-fault code
// paths and anchors the "no faults => no new costs" contract.  Every event
// lands inside the measurement window of both the fast (6.5 s) and the
// normal (24 s) horizon, so --fast changes only the statistics, never which
// domains fire.
//
// What to look for: completed throughput decays gracefully with intensity
// while queries_shed/queries_degraded grow — the overload controller trades
// admission for bounded response times — and io_errors/io_retries scale
// linearly with iorate while the retry chains keep every query's result
// exact (errors are latency, not data loss).  The whole sweep is a pure
// function of --seed: the CSV is bit-identical across --jobs and reruns
// (CI-enforced), which is what makes the chaos results debuggable.
//
// Run with --report-json=BENCH_chaos.json for the CI artifact (the
// robustness block maps completed/shed/degraded to each intensity).

#include <algorithm>

#include "bench/bench_common.h"

namespace {

using namespace pdblb;
using bench::ApplyHorizon;

void Setup(bench::Figure& fig) {
  fig.SetTitle(
      "Chaos — composed disk/network/overload fault domains vs. strategy "
      "(8 PE)",
      "intensity");

  const std::vector<int> intensities = bench::FastMode()
                                           ? std::vector<int>{0, 2, 3}
                                           : std::vector<int>{0, 1, 2, 3};
  const std::vector<std::pair<std::string, StrategyConfig>> strategy_set = {
      {"p_su-opt+LUM", strategies::PsuOptLUM()},
      {"OPT-IO-CPU", strategies::OptIOCpu()},
  };

  for (int i : intensities) {
    for (const auto& [name, strategy] : strategy_set) {
      SystemConfig cfg;
      cfg.num_pes = 8;
      cfg.strategy = strategy;
      // Tight admission (2 slots per PE) so overload shows up as queue
      // depth — the signal the overload controller watches — instead of
      // being absorbed by a deep multiprogramming limit.
      cfg.multiprogramming_level = 2;
      ApplyHorizon(cfg);
      // Load grows with intensity so the overload controller has pressure
      // to react to (the fault domains alone only add latency).
      cfg.join_query.arrival_rate_per_pe_qps = 0.25 * (1.0 + i);

      if (i > 0) {
        // Disk domain: background error rate plus a scripted slow window.
        cfg.faults.io_error_rate = 0.01 * i;
        cfg.faults.io_retry_limit = 3;
        cfg.faults.io_retry_penalty_ms = 5.0;
        cfg.faults.events.push_back(
            {2000.0, FaultKind::kSlowDisk, 1, -1, 1.0 + i});
        cfg.faults.events.push_back({4500.0, FaultKind::kSlowDisk, 1, -1, 1.0});
        // Network domain: one degraded link for the rest of the run.
        cfg.faults.events.push_back(
            {2000.0, FaultKind::kSlowLink, 4, 5, 1.0 + i});
        if (i >= 2) {
          cfg.faults.events.push_back({2500.0, FaultKind::kPartition, 0, 3});
          cfg.faults.events.push_back({3800.0, FaultKind::kHeal, 0, 3});
        }
        if (i >= 3) {
          cfg.faults.events.push_back({3000.0, FaultKind::kCrash, 2});
          cfg.faults.events.push_back({4200.0, FaultKind::kRecover, 2});
        }
        // Partition/crash victims retry; the deadline bounds retry chains.
        cfg.faults.query_timeout_ms = 8000.0;
        cfg.faults.retry.max_attempts = 6;
        cfg.faults.retry.initial_backoff_ms = 100.0;
        // Overload domain: thresholds tighten with intensity so level 3
        // sheds where level 1 merely degrades.  Shedding never starts
        // below the degrade threshold (SystemConfig::Validate()).
        cfg.overload.enabled = true;
        cfg.overload.degrade_queue_threshold = 2.0;
        cfg.overload.shed_queue_threshold = std::max(2.0, 10.0 - 3.0 * i);
        cfg.overload.exit_queue_threshold = 0.5;
        cfg.control_report_interval_ms = 500.0;
      }

      fig.AddPoint("chaos/" + name + "/i" + std::to_string(i), cfg, name,
                   static_cast<double>(i), std::to_string(i));
    }
  }
}

}  // namespace

PDBLB_BENCH_MAIN(Setup)
