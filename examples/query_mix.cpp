// Copyright 2026 the pdblb authors. MIT license.
//
// Query mix: exercises every workload class of the paper's Section 4 model
// at once — two-way hash joins, a 3-way join pipeline, clustered index
// scans, update statements (2PL + full 2PC) and debit-credit OLTP — and
// prints one response-time row per class.
//
// This is the "real system" situation the paper motivates: complex queries
// of very different resource profiles competing with transactions, where
// dynamic multi-resource load balancing has the most potential (their
// Section 5.3).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/query_mix [num_pes]

#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "engine/cluster.h"

int main(int argc, char** argv) {
  using namespace pdblb;

  SystemConfig cfg;
  cfg.num_pes = argc > 1 ? std::atoi(argv[1]) : 40;

  // Two-way joins: the paper's base query class.
  cfg.join_query.arrival_rate_per_pe_qps = 0.05;

  // A 3-way join pipeline (A |><| B) |><| C, planned stage by stage.
  cfg.multiway_join.ways = 3;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.01;

  // Clustered index scans on B.
  cfg.scan_query.access = ScanAccess::kClusteredIndex;
  cfg.scan_query.relation = TargetRelation::kB;
  cfg.scan_query.selectivity = 0.01;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.05;

  // Update statements on A (indexed predicate).
  cfg.update_query.relation = TargetRelation::kA;
  cfg.update_query.selectivity = 0.001;
  cfg.update_query.arrival_rate_per_pe_qps = 0.05;

  // Debit-credit OLTP on the A nodes.
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kANodes;
  cfg.oltp.tps_per_node = 50.0;

  cfg.strategy = strategies::OptIOCpu();
  cfg.warmup_ms = 3000;
  cfg.measurement_ms = 20000;

  if (Status st = cfg.Validate(); !st.ok()) {
    std::fprintf(stderr, "bad config: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("Running a %d-PE cluster with all five workload classes "
              "(%s)...\n\n",
              cfg.num_pes, cfg.strategy.Name().c_str());
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();

  TextTable t({"class", "completed", "avg RT [ms]", "notes"});
  t.AddRow({"2-way join", std::to_string(r.joins_completed),
            TextTable::Num(r.join_rt_ms, 1),
            "avg degree " + TextTable::Num(r.avg_degree, 1)});
  t.AddRow({"3-way join", std::to_string(r.multiway_completed),
            TextTable::Num(r.multiway_rt_ms, 1), "2 pipeline stages"});
  t.AddRow({"index scan", std::to_string(r.scans_completed),
            TextTable::Num(r.scan_rt_ms, 1), "clustered, 1% of B"});
  t.AddRow({"update stmt", std::to_string(r.updates_completed),
            TextTable::Num(r.update_rt_ms, 1),
            std::to_string(r.update_aborts) + " deadlock aborts"});
  t.AddRow({"OLTP txn", std::to_string(r.oltp_completed),
            TextTable::Num(r.oltp_rt_ms, 1),
            TextTable::Num(r.oltp_throughput_tps, 0) + " TPS"});
  std::fputs(t.ToString().c_str(), stdout);

  std::printf("\nCluster averages: CPU %.0f%%, disk %.0f%%, memory %.0f%%\n",
              r.cpu_utilization * 100, r.disk_utilization * 100,
              r.memory_utilization * 100);
  return 0;
}
