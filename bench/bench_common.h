// Copyright 2026 the pdblb authors. MIT license.
//
// Shared harness for the per-figure benchmark binaries.  Each driver
// declares a grid of sweep points (one per (series, x) coordinate); the
// harness executes the grid on the shared experiment runner
// (src/runner/sweep.h) and prints a paper-style table with one row per
// point.  All drivers share one CLI:
//
//   --jobs=N            run N sweep points concurrently (default 1).  The
//                       table and CSV are bit-identical for every N; jobs
//                       only changes wall-clock time.
//   --csv=PATH          dump the deterministic result columns as CSV
//   --filter=SUBSTR     keep only points whose name contains SUBSTR
//                       (names are path-style: figure/series/x)
//   --seed=S            root seed; point i runs with a seed derived from
//                       (S, grid index i)
//   --faults=SPEC       apply a fault spec to every point (grammar in
//                       common/config.h ParseFaultSpec, e.g.
//                       "crash@8000:pe3;recover@12000:pe3" or
//                       "rate=0.5;mttr=3000;retries=3").  The CSV stays
//                       bit-identical across --jobs with faults on
//   --query-timeout-ms=T  give every query a T-ms deadline (0 disables);
//                       overrides the per-point and --faults timeout
//   --migration-bw=MB   cap elastic fragment migration at MB MB/s per
//                       active move (only observable when --faults schedules
//                       addpe/drainpe clauses; see docs/robustness.md)
//   --eviction=POLICY   override every point's buffer replacement policy
//                       (lru | lru-k | lfu | clock; see docs/bufmgr.md)
//   --fast              shrink warm-up/measurement (quick smoke runs)
//   --list              print the point names of the (filtered) grid, don't run
//   --quiet             suppress the per-point progress lines on stderr
//   --report-json=PATH  write {points, jobs, wall_seconds, points_per_min}
//                       (sweep-throughput trajectory for CI); with --trace
//                       also the per-subsystem attribution totals
//   --trace=PATH        enable kernel event tracing for every point and dump
//                       each point's trace to PATH.<grid_index>.csv (files
//                       and bytes are identical for every --jobs value);
//                       also prints the per-subsystem attribution table
//
// Environment (kept for compatibility with existing scripts):
//   PDBLB_BENCH_FAST=1        same as --fast
//   PDBLB_BENCH_CSV=<path>    same as --csv=<path>

#ifndef PDBLB_BENCH_BENCH_COMMON_H_
#define PDBLB_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "engine/cluster.h"
#include "runner/sweep.h"

namespace pdblb::bench {

namespace internal {
inline bool& FastFlag() {
  static bool fast = [] {
    const char* env = std::getenv("PDBLB_BENCH_FAST");
    return env != nullptr && env[0] == '1';
  }();
  return fast;
}
}  // namespace internal

inline bool FastMode() { return internal::FastFlag(); }

/// Applies the bench-wide measurement horizon (shortened in fast mode).
inline void ApplyHorizon(SystemConfig& cfg) {
  if (FastMode()) {
    cfg.warmup_ms = 1500.0;
    cfg.measurement_ms = 5000.0;
  } else {
    cfg.warmup_ms = 4000.0;
    cfg.measurement_ms = 20000.0;
  }
}

/// Parsed command line of a figure binary.
struct BenchOptions {
  int jobs = 1;
  uint64_t seed = 42;
  std::string csv_path;     // empty: no CSV
  std::string fault_spec;   // empty: no fault override (--faults=SPEC)
  double query_timeout_ms = -1.0;  // < 0: keep per-point configuration
  double migration_bw_mbps = -1.0;  // <= 0: keep per-point configuration
  std::string eviction;     // empty: keep per-point policy (--eviction=P)
  std::string filter;       // empty: whole grid
  std::string report_json;  // empty: no sweep-throughput report
  std::string trace_path;   // empty: tracing off
  bool list_only = false;
  bool quiet = false;
};

/// A figure under construction: title, axis name and the point grid.
class Figure {
 public:
  void SetTitle(std::string title, std::string x_name) {
    title_ = std::move(title);
    x_name_ = std::move(x_name);
  }

  /// Declares one grid point.  `name` must be unique within the figure and
  /// follows the path-style convention figure/series/x (what --filter and
  /// --list operate on).
  void AddPoint(std::string name, SystemConfig cfg, std::string series,
                double x, std::string x_label) {
    sweep_.Add(runner::SweepPoint{std::move(name), std::move(series), x,
                                  std::move(x_label), std::move(cfg)});
  }

  const std::string& title() const { return title_; }
  const std::string& x_name() const { return x_name_; }
  runner::Sweep& sweep() { return sweep_; }

 private:
  std::string title_ = "figure";
  std::string x_name_ = "x";
  runner::Sweep sweep_;
};

/// Parses the shared CLI.  Returns -1 to continue; otherwise an exit code
/// (e.g. after --help or on a malformed flag).
inline int ParseBenchArgs(int argc, char** argv, BenchOptions& opts) {
  auto value_of = [](const char* arg, const char* flag) -> const char* {
    size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=') {
      return arg + len + 1;
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = value_of(arg, "--jobs")) {
      char* end = nullptr;
      long jobs = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || jobs < 1 || jobs > 1 << 20) {
        std::fprintf(stderr, "invalid --jobs value: %s\n", v);
        return 2;
      }
      opts.jobs = static_cast<int>(jobs);
    } else if (const char* v = value_of(arg, "--seed")) {
      char* end = nullptr;
      opts.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "invalid --seed value: %s\n", v);
        return 2;
      }
    } else if (const char* v = value_of(arg, "--csv")) {
      opts.csv_path = v;
    } else if (const char* v = value_of(arg, "--faults")) {
      // Validate eagerly so a typo fails before the sweep starts.
      FaultConfig probe;
      Status st = ParseFaultSpec(v, &probe);
      if (!st.ok()) {
        std::fprintf(stderr, "invalid --faults value: %s\n",
                     st.ToString().c_str());
        return 2;
      }
      opts.fault_spec = v;
    } else if (const char* v = value_of(arg, "--eviction")) {
      // Validate eagerly so a typo fails before the sweep starts.
      EvictionPolicyKind probe;
      Status st = ParseEvictionPolicy(v, &probe);
      if (!st.ok()) {
        std::fprintf(stderr, "invalid --eviction value: %s\n",
                     st.ToString().c_str());
        return 2;
      }
      opts.eviction = v;
    } else if (const char* v = value_of(arg, "--query-timeout-ms")) {
      char* end = nullptr;
      double timeout = std::strtod(v, &end);
      if (end == v || *end != '\0' || timeout < 0.0) {
        std::fprintf(stderr, "invalid --query-timeout-ms value: %s\n", v);
        return 2;
      }
      opts.query_timeout_ms = timeout;
    } else if (const char* v = value_of(arg, "--migration-bw")) {
      char* end = nullptr;
      double bw = std::strtod(v, &end);
      if (end == v || *end != '\0' || bw <= 0.0) {
        std::fprintf(stderr, "invalid --migration-bw value: %s\n", v);
        return 2;
      }
      opts.migration_bw_mbps = bw;
    } else if (const char* v = value_of(arg, "--filter")) {
      opts.filter = v;
    } else if (const char* v = value_of(arg, "--report-json")) {
      opts.report_json = v;
    } else if (const char* v = value_of(arg, "--trace")) {
      opts.trace_path = v;
    } else if (std::strcmp(arg, "--fast") == 0) {
      internal::FastFlag() = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      opts.list_only = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      opts.quiet = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      std::fprintf(stderr,
                   "usage: %s [--jobs=N] [--csv=PATH] "
                   "[--faults=SPEC] [--query-timeout-ms=T] "
                   "[--migration-bw=MB] "
                   "[--eviction=lru|lru-k|lfu|clock] "
                   "[--filter=SUBSTR] [--seed=S] [--fast] [--list] [--quiet] "
                   "[--report-json=PATH] [--trace=PATH]\n"
                   "\n"
                   "  --jobs=N    run sweep points on N worker threads (each "
                   "simulation is single-threaded)\n"
                   "\n"
                   "--faults=SPEC clause grammar (clauses joined by ';', "
                   "parse errors quote the\n"
                   "offending clause and its byte offset; docs/robustness.md "
                   "has the semantics):\n"
                   "\n"
                   "  clause                          effect\n"
                   "  ------------------------------  ------------------------"
                   "--------------------\n"
                   "  crash@<ms>:pe<N>                crash PE N at <ms>\n"
                   "  recover@<ms>:pe<N>              recover PE N at <ms>\n"
                   "  slowdisk@<ms>:pe<N>:x<M>        multiply PE N's disk "
                   "service by M (>=1)\n"
                   "  partition@<ms>:pe<A>-pe<B>      cut the A<->B link\n"
                   "  heal@<ms>:pe<A>-pe<B>           restore the A<->B link\n"
                   "  slowlink@<ms>:pe<A>-pe<B>:x<M>  multiply the A<->B wire "
                   "delay by M (>=1)\n"
                   "  addpe@<ms>:pe<N>                elastic resize: spare "
                   "PE N joins at <ms>\n"
                   "  drainpe@<ms>:pe<N>              elastic resize: migrate "
                   "PE N out, then leave\n"
                   "  rate=<r>                        random crashes per PE "
                   "per minute\n"
                   "  mttr=<ms>                       mean time to repair for "
                   "random crashes\n"
                   "  timeout=<ms>                    per-query deadline (0 "
                   "disables)\n"
                   "  timeout_frac=<f>                fraction of queries "
                   "carrying the deadline\n"
                   "  retries=<n>                     retry budget per query "
                   "(RetryPolicy)\n"
                   "  iorate=<r>                      transient disk error "
                   "probability per access\n",
                   argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      return 2;
    }
  }
  if (opts.csv_path.empty()) {
    if (const char* csv = std::getenv("PDBLB_BENCH_CSV")) opts.csv_path = csv;
  }
  return -1;
}

/// Prints the paper-style figure table (stdout).  The kern Mev/s column is
/// wall-clock derived and intentionally lives only here, never in the CSV.
inline void PrintFigureTable(const Figure& fig,
                             const std::vector<runner::SweepResult>& results) {
  if (results.empty()) return;
  std::printf("\n=== %s ===\n", fig.title().c_str());
  TextTable t({fig.x_name(), "strategy", "join RT [ms]", "deg", "CPU util",
               "disk util", "mem util", "buf hit", "temp pg/join", "join QPS",
               "OLTP RT [ms]", "OLTP TPS", "kern Mev/s"});
  for (const runner::SweepResult& res : results) {
    const MetricsReport& r = res.report;
    t.AddRow({res.point.x_label, res.point.series,
              TextTable::Num(r.join_rt_ms, 1), TextTable::Num(r.avg_degree, 1),
              TextTable::Num(r.cpu_utilization, 2),
              TextTable::Num(r.disk_utilization, 2),
              TextTable::Num(r.memory_utilization, 2),
              r.buffer_hits + r.buffer_misses > 0
                  ? TextTable::Num(r.buffer_hit_ratio, 2)
                  : "-",
              TextTable::Num(r.temp_pages_written_per_join, 1),
              TextTable::Num(r.join_throughput_qps, 2),
              r.oltp_completed > 0 ? TextTable::Num(r.oltp_rt_ms, 1) : "-",
              r.oltp_completed > 0 ? TextTable::Num(r.oltp_throughput_tps, 0)
                                   : "-",
              TextTable::Num(r.kernel_events_per_sec / 1e6, 1)});
  }
  std::fputs(t.ToString().c_str(), stdout);
}

/// True when any point recorded fault activity (crashes, shed queries,
/// disk errors, partitions, ...).  Gates the robustness table and JSON
/// block so fault-free output stays byte-identical.
inline bool AnyFaultActivity(const std::vector<runner::SweepResult>& results) {
  for (const runner::SweepResult& res : results) {
    const MetricsReport& r = res.report;
    if (r.pe_crashes > 0 || r.queries_retried > 0 || r.queries_timed_out > 0 ||
        r.queries_failed > 0 || r.queries_degraded > 0 || r.queries_shed > 0 ||
        r.io_errors > 0 || r.link_partitions > 0 || r.slow_disk_ms > 0.0) {
      return true;
    }
  }
  return false;
}

/// Prints the robustness table (stdout): per-point fault-domain activity and
/// query outcomes.  Printed only when some point saw fault activity, so
/// fault-free runs produce exactly the historical output.
inline void PrintRobustnessTable(
    const Figure& fig, const std::vector<runner::SweepResult>& results) {
  if (!AnyFaultActivity(results)) return;
  std::printf("\n=== robustness (%s) ===\n", fig.title().c_str());
  TextTable t({fig.x_name(), "strategy", "done", "shed", "degr", "retry",
               "t/o", "fail", "io err", "io rtry", "parts", "slow ms",
               "crash"});
  for (const runner::SweepResult& res : results) {
    const MetricsReport& r = res.report;
    t.AddRow({res.point.x_label, res.point.series,
              std::to_string(r.joins_completed),
              std::to_string(r.queries_shed),
              std::to_string(r.queries_degraded),
              std::to_string(r.queries_retried),
              std::to_string(r.queries_timed_out),
              std::to_string(r.queries_failed), std::to_string(r.io_errors),
              std::to_string(r.io_retries), std::to_string(r.link_partitions),
              TextTable::Num(r.slow_disk_ms, 0),
              std::to_string(r.pe_crashes)});
  }
  std::fputs(t.ToString().c_str(), stdout);
}

/// True when any point performed an elastic resize (membership change or
/// fragment migration).  Gates the elasticity table and JSON block so
/// resize-free output stays byte-identical.
inline bool AnyElasticActivity(
    const std::vector<runner::SweepResult>& results) {
  for (const runner::SweepResult& res : results) {
    const MetricsReport& r = res.report;
    if (r.pes_added > 0 || r.pes_drained > 0 || r.fragments_migrated > 0 ||
        r.migration_pages_discarded > 0) {
      return true;
    }
  }
  return false;
}

/// Prints the elasticity table (stdout): per-point membership changes and
/// migration volume.  Printed only when some point resized.
inline void PrintElasticityTable(
    const Figure& fig, const std::vector<runner::SweepResult>& results) {
  if (!AnyElasticActivity(results)) return;
  std::printf("\n=== elasticity (%s) ===\n", fig.title().c_str());
  TextTable t({fig.x_name(), "strategy", "added", "drained", "frags",
               "pages", "discarded", "replans"});
  for (const runner::SweepResult& res : results) {
    const MetricsReport& r = res.report;
    t.AddRow({res.point.x_label, res.point.series,
              std::to_string(r.pes_added), std::to_string(r.pes_drained),
              std::to_string(r.fragments_migrated),
              std::to_string(r.migration_pages_moved),
              std::to_string(r.migration_pages_discarded),
              std::to_string(r.migrations_replanned)});
  }
  std::fputs(t.ToString().c_str(), stdout);
}

/// Per-subsystem attribution summed over all points of a sweep (zeros when
/// tracing was off or compiled out).
struct TraceTotals {
  bool any = false;
  uint64_t events[sim::kNumTraceSubsystems] = {};
  double sim_time_ms[sim::kNumTraceSubsystems] = {};
};

inline TraceTotals SumTraceTotals(
    const std::vector<runner::SweepResult>& results) {
  TraceTotals t;
  for (const runner::SweepResult& res : results) {
    if (!res.report.trace_enabled) continue;
    t.any = true;
    for (size_t s = 0; s < sim::kNumTraceSubsystems; ++s) {
      t.events[s] += res.report.trace_subsystem_events[s];
      t.sim_time_ms[s] += res.report.trace_subsystem_time_ms[s];
    }
  }
  return t;
}

/// Prints the per-subsystem attribution table (stdout): where the runs'
/// simulated time went, and how many kernel events each subsystem caused.
inline void PrintTraceAttribution(const TraceTotals& totals) {
  if (!totals.any) return;
  double total_ms = 0.0;
  uint64_t total_events = 0;
  for (size_t s = 0; s < sim::kNumTraceSubsystems; ++s) {
    total_ms += totals.sim_time_ms[s];
    total_events += totals.events[s];
  }
  std::printf("\n=== trace attribution (all points) ===\n");
  TextTable t({"subsystem", "events", "sim time [ms]", "share"});
  for (size_t s = 0; s < sim::kNumTraceSubsystems; ++s) {
    if (totals.events[s] == 0) continue;
    t.AddRow({sim::TraceSubsystemName(s),
              std::to_string(totals.events[s]),
              TextTable::Num(totals.sim_time_ms[s], 1),
              TextTable::Num(total_ms > 0.0
                                 ? 100.0 * totals.sim_time_ms[s] / total_ms
                                 : 0.0,
                             1) + "%"});
  }
  t.AddRow({"total", std::to_string(total_events),
            TextTable::Num(total_ms, 1), "100.0%"});
  std::fputs(t.ToString().c_str(), stdout);
}

/// Runs the (filtered) grid, prints the table, writes CSV/JSON artifacts.
inline int FigureMain(Figure& fig, const BenchOptions& opts) {
  if (!opts.filter.empty()) {
    fig.sweep().Filter(opts.filter);
  }
  if (opts.list_only) {
    for (const runner::SweepPoint& p : fig.sweep().points()) {
      std::printf("%s\n", p.name.c_str());
    }
    return 0;
  }
  if (fig.sweep().empty()) {
    std::fprintf(stderr, "no points match filter '%s'\n", opts.filter.c_str());
    return 2;
  }

  runner::SweepOptions run_opts;
  run_opts.jobs = opts.jobs;
  run_opts.root_seed = opts.seed;
  run_opts.fault_spec = opts.fault_spec;
  run_opts.query_timeout_ms = opts.query_timeout_ms;
  run_opts.migration_bw_mbps = opts.migration_bw_mbps;
  run_opts.eviction = opts.eviction;
  run_opts.trace_path = opts.trace_path;
  if (!opts.quiet) {
    run_opts.on_point_done = [](const runner::SweepPoint& point,
                                const MetricsReport& report, size_t finished,
                                size_t total) {
      std::fprintf(stderr, "[%zu/%zu] %s  join_rt=%.1f ms\n", finished, total,
                   point.name.c_str(), report.join_rt_ms);
    };
  }

  auto wall_start = std::chrono::steady_clock::now();
  std::vector<runner::SweepResult> results = fig.sweep().Run(run_opts);
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  PrintFigureTable(fig, results);
  PrintRobustnessTable(fig, results);
  PrintElasticityTable(fig, results);
  TraceTotals trace_totals = SumTraceTotals(results);
  PrintTraceAttribution(trace_totals);
  std::printf("\n%zu points in %.1f s with --jobs=%d (%.1f points/min)\n",
              results.size(), wall_seconds, opts.jobs,
              wall_seconds > 0.0 ? 60.0 * static_cast<double>(results.size()) /
                                       wall_seconds
                                 : 0.0);

  if (!opts.csv_path.empty()) {
    Status st = runner::WriteResultsCsv(opts.csv_path, results);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!opts.report_json.empty()) {
    std::FILE* f = std::fopen(opts.report_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opts.report_json.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"title\": \"%s\", \"points\": %zu, \"jobs\": %d, "
                 "\"wall_seconds\": %.3f, \"points_per_min\": %.2f",
                 fig.title().c_str(), results.size(), opts.jobs, wall_seconds,
                 wall_seconds > 0.0
                     ? 60.0 * static_cast<double>(results.size()) /
                           wall_seconds
                     : 0.0);
    if (trace_totals.any) {
      // Per-subsystem attribution over the whole sweep (seed-deterministic,
      // unlike the wall-clock fields above).
      std::fprintf(f, ", \"trace_attribution\": {");
      bool first = true;
      for (size_t s = 0; s < sim::kNumTraceSubsystems; ++s) {
        if (trace_totals.events[s] == 0) continue;
        std::fprintf(f, "%s\"%s\": {\"events\": %llu, \"sim_time_ms\": %.3f}",
                     first ? "" : ", ", sim::TraceSubsystemName(s),
                     static_cast<unsigned long long>(trace_totals.events[s]),
                     trace_totals.sim_time_ms[s]);
        first = false;
      }
      std::fprintf(f, "}");
    }
    if (AnyFaultActivity(results)) {
      // Per-point query outcomes vs fault activity (seed-deterministic);
      // omitted for fault-free sweeps so historical artifacts don't change.
      std::fprintf(f, ", \"robustness\": [");
      for (size_t i = 0; i < results.size(); ++i) {
        const MetricsReport& r = results[i].report;
        std::fprintf(
            f,
            "%s{\"point\": \"%s\", \"completed\": %lld, \"shed\": %lld, "
            "\"degraded\": %lld, \"retried\": %lld, \"timed_out\": %lld, "
            "\"failed\": %lld, \"io_errors\": %lld, \"io_retries\": %lld, "
            "\"link_partitions\": %lld, \"slow_disk_ms\": %.3f, "
            "\"pe_crashes\": %lld}",
            i == 0 ? "" : ", ", results[i].point.name.c_str(),
            static_cast<long long>(r.joins_completed),
            static_cast<long long>(r.queries_shed),
            static_cast<long long>(r.queries_degraded),
            static_cast<long long>(r.queries_retried),
            static_cast<long long>(r.queries_timed_out),
            static_cast<long long>(r.queries_failed),
            static_cast<long long>(r.io_errors),
            static_cast<long long>(r.io_retries),
            static_cast<long long>(r.link_partitions), r.slow_disk_ms,
            static_cast<long long>(r.pe_crashes));
      }
      std::fprintf(f, "]");
    }
    if (AnyElasticActivity(results)) {
      // Per-point membership changes and migration volume
      // (seed-deterministic); omitted for resize-free sweeps so historical
      // artifacts don't change.
      std::fprintf(f, ", \"elasticity\": [");
      for (size_t i = 0; i < results.size(); ++i) {
        const MetricsReport& r = results[i].report;
        std::fprintf(
            f,
            "%s{\"point\": \"%s\", \"pes_added\": %lld, "
            "\"pes_drained\": %lld, \"fragments_migrated\": %lld, "
            "\"migration_pages_moved\": %lld, "
            "\"migration_pages_discarded\": %lld, "
            "\"migrations_replanned\": %lld}",
            i == 0 ? "" : ", ", results[i].point.name.c_str(),
            static_cast<long long>(r.pes_added),
            static_cast<long long>(r.pes_drained),
            static_cast<long long>(r.fragments_migrated),
            static_cast<long long>(r.migration_pages_moved),
            static_cast<long long>(r.migration_pages_discarded),
            static_cast<long long>(r.migrations_replanned));
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  return 0;
}

}  // namespace pdblb::bench

/// Standard main for a figure driver: parse the shared CLI, let the driver
/// declare its grid (setup_fn(Figure&)), execute it.
#define PDBLB_BENCH_MAIN(setup_fn)                                     \
  int main(int argc, char** argv) {                                    \
    ::pdblb::bench::BenchOptions opts;                                 \
    if (int rc = ::pdblb::bench::ParseBenchArgs(argc, argv, opts);     \
        rc >= 0) {                                                     \
      return rc;                                                       \
    }                                                                  \
    ::pdblb::bench::Figure fig;                                        \
    setup_fn(fig);                                                     \
    return ::pdblb::bench::FigureMain(fig, opts);                      \
  }

#endif  // PDBLB_BENCH_BENCH_COMMON_H_
