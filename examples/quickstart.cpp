// Copyright 2026 the pdblb authors. MIT license.
//
// Quickstart: simulate a 40-node Shared Nothing parallel database system
// executing concurrent hash-join queries under the paper's default workload,
// using the dynamic multi-resource strategy OPT-IO-CPU, and print what the
// planner decided and how the system behaved.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "common/table.h"
#include "core/cost_model.h"
#include "engine/cluster.h"

int main() {
  using namespace pdblb;

  // 1. Configure the system.  SystemConfig defaults are the paper's
  //    parameter table (Fig. 4): 20 MIPS PEs, 0.4 MB buffers, 10 disks per
  //    PE, relation A (100 MB) on 20% of the nodes, B (400 MB) on 80%.
  SystemConfig cfg;
  cfg.num_pes = 40;
  cfg.join_query.scan_selectivity = 0.01;        // 1% scans
  cfg.join_query.arrival_rate_per_pe_qps = 0.25; // open arrivals
  cfg.strategy = strategies::OptIOCpu();         // the paper's best
  cfg.warmup_ms = 3000;
  cfg.measurement_ms = 15000;

  if (Status st = cfg.Validate(); !st.ok()) {
    std::fprintf(stderr, "bad config: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. What does the analytic cost model say about this query class?
  CostModel model(cfg);
  std::printf("Join query class at %.1f%% selectivity:\n",
              cfg.join_query.scan_selectivity * 100);
  std::printf("  hash table size        : %ld pages\n",
              static_cast<long>(model.HashTablePages()));
  std::printf("  p_su-opt  (single-user): %d join processors\n",
              model.PsuOpt());
  std::printf("  p_su-noIO (formula 3.1): %d join processors\n",
              model.PsuNoIO());
  std::printf("  p_mu-cpu at 70%% CPU    : %d join processors\n\n",
              PmuCpu(model.PsuOpt(), 0.7, cfg.num_pes));

  // 3. Run the simulation.
  std::printf("Simulating %d PEs with strategy %s ...\n\n", cfg.num_pes,
              cfg.strategy.Name().c_str());
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();

  // 4. Report.
  TextTable t({"metric", "value"});
  t.AddRow({"join queries completed", std::to_string(r.joins_completed)});
  t.AddRow({"avg join response time", TextTable::Num(r.join_rt_ms, 1) + " ms"});
  t.AddRow({"max join response time",
            TextTable::Num(r.join_rt_max_ms, 1) + " ms"});
  t.AddRow({"avg degree of join parallelism", TextTable::Num(r.avg_degree, 1)});
  t.AddRow({"join throughput", TextTable::Num(r.join_throughput_qps, 2) +
                                   " QPS"});
  t.AddRow({"avg CPU utilization", TextTable::Num(r.cpu_utilization * 100, 1) +
                                       " %"});
  t.AddRow({"avg disk utilization",
            TextTable::Num(r.disk_utilization * 100, 1) + " %"});
  t.AddRow({"avg memory utilization",
            TextTable::Num(r.memory_utilization * 100, 1) + " %"});
  t.AddRow({"temp-file pages per join",
            TextTable::Num(r.temp_pages_written_per_join, 1)});
  t.AddRow({"avg memory-queue wait",
            TextTable::Num(r.avg_memory_queue_wait_ms, 1) + " ms"});
  std::fputs(t.ToString().c_str(), stdout);
  return 0;
}
