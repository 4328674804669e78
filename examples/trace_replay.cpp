// Copyright 2026 the pdblb authors. MIT license.
//
// Trace replay: record a workload trace, then replay the *identical*
// arrival sequence against two different load-balancing strategies — the
// trace-driven evaluation mode the paper's simulator supports (Section 4,
// "use of real-life database traces [18]").  Because both runs see the same
// arrivals, the response-time difference is purely the strategies' doing.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/trace_replay [trace-file]
//
// With a file argument the trace is written there and read back (so you can
// inspect or hand-edit it); without, it stays in memory.

#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "engine/cluster.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
  using namespace pdblb;

  const int num_pes = 30;
  const double horizon_ms = 20000.0;

  // 1. Synthesize a mixed trace: joins + index scans + OLTP on the A nodes.
  std::vector<PeId> oltp_nodes;
  for (PeId pe = 0; pe < num_pes / 5; ++pe) oltp_nodes.push_back(pe);
  Trace trace = SynthesizeTrace(/*seed=*/99, horizon_ms,
                                {{QueryClass::kJoin, 2.0},
                                 {QueryClass::kScan, 1.0},
                                 {QueryClass::kOltp, 60.0}},  // per node
                                oltp_nodes);
  std::printf("Synthesized a trace with %zu arrival events over %.0f s.\n",
              trace.size(), horizon_ms / 1000.0);

  if (argc > 1) {
    if (Status st = trace.WriteFile(argv[1]); !st.ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n", st.ToString().c_str());
      return 1;
    }
    Trace loaded;
    if (Status st = Trace::ReadFile(argv[1], &loaded); !st.ok()) {
      std::fprintf(stderr, "cannot read trace: %s\n", st.ToString().c_str());
      return 1;
    }
    trace = std::move(loaded);
    std::printf("Round-tripped the trace through %s.\n", argv[1]);
  }

  // 2. Replay the identical arrivals under two strategies.
  auto run = [&](StrategyConfig strategy) {
    SystemConfig cfg;
    cfg.num_pes = num_pes;
    cfg.join_query.arrival_rate_per_pe_qps = 0.0;  // the trace drives us
    cfg.scan_query.selectivity = 0.01;
    cfg.oltp.enabled = true;  // schema needs the OLTP relations
    cfg.oltp.placement = OltpPlacement::kANodes;
    cfg.strategy = strategy;
    cfg.warmup_ms = 2000.0;
    cfg.measurement_ms = horizon_ms - cfg.warmup_ms;
    Cluster cluster(cfg);
    if (Status st = cluster.SetTrace(trace); !st.ok()) {
      std::fprintf(stderr, "cannot replay trace: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    return cluster.Run();
  };

  TextTable t({"strategy", "join RT [ms]", "scan RT [ms]", "OLTP RT [ms]",
               "avg degree", "CPU util"});
  for (StrategyConfig strategy :
       {strategies::PsuOptRandom(), strategies::OptIOCpu()}) {
    MetricsReport r = run(strategy);
    t.AddRow({strategy.Name(), TextTable::Num(r.join_rt_ms, 1),
              TextTable::Num(r.scan_rt_ms, 1),
              TextTable::Num(r.oltp_rt_ms, 1),
              TextTable::Num(r.avg_degree, 1),
              TextTable::Num(r.cpu_utilization, 2)});
  }
  std::fputs(t.ToString().c_str(), stdout);
  std::printf("\nSame arrivals, different strategies: the response-time gap "
              "is pure scheduling.\n");
  return 0;
}
