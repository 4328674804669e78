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
// plus the config overrides declared in kConfigOverrides (--faults,
// --migration-bw, --eviction).  Each is checked while parsing, patches
// every point of the filtered grid before the sweep, and then every point's
// effective config must pass SystemConfig::Validate(); otherwise the driver
// exits with status 2, naming the point, before anything runs.

#ifndef PDBLB_BENCH_BENCH_COMMON_H_
#define PDBLB_BENCH_BENCH_COMMON_H_

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "engine/cluster.h"
#include "runner/sweep.h"

namespace pdblb::bench {

namespace internal {
inline bool fast_mode = false;  // set by --fast
}  // namespace internal

inline bool FastMode() { return internal::fast_mode; }

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

/// A flag that overrides part of every point's config.  `apply` both
/// validates the value (the CLI runs it on a scratch config while parsing,
/// so a typo fails before anything runs) and patches one point's config.
struct ConfigOverride {
  const char* flag;  ///< "--faults"; the value follows '='
  const char* help;  ///< its --help line
  Status (*apply)(const std::string& value, SystemConfig* cfg);
};

inline constexpr ConfigOverride kConfigOverrides[] = {
    {"--faults",
     "  --faults=SPEC        merge a fault spec into every point (grammar "
     "below)",
     [](const std::string& spec, SystemConfig* cfg) {
       return ParseFaultSpec(spec, &cfg->faults);
     }},
    {"--migration-bw",
     "  --migration-bw=MB    cap elastic fragment migration at MB MB/s per "
     "active move",
     [](const std::string& mbps, SystemConfig* cfg) {
       double bw = 0.0;
       if (!ParseNumber(mbps, &bw) || bw <= 0.0) {
         return Status::InvalidArgument("want a positive MB/s number: " +
                                        mbps);
       }
       cfg->elastic.migration_bw_mbps = bw;
       return Status::OK();
     }},
    {"--eviction",
     "  --eviction=POLICY    set every point's buffer replacement policy "
     "(lru | lru-k | lfu | clock)",
     [](const std::string& policy, SystemConfig* cfg) {
       return ParseEvictionPolicy(policy, &cfg->buffer.eviction);
     }},
};

/// Parsed command line of a figure binary.
struct BenchOptions {
  int jobs = 1;
  uint64_t seed = 42;
  std::string csv_path;     // empty: no CSV
  std::string filter;       // empty: whole grid
  std::string report_json;  // empty: no sweep-throughput report
  std::string trace_path;   // empty: tracing off
  /// The value of each override flag given, indexed like kConfigOverrides
  /// (a repeated flag keeps its last value).
  std::array<std::optional<std::string>, std::size(kConfigOverrides)>
      overrides;
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
    const ConfigOverride* override_flag = nullptr;
    for (const ConfigOverride& o : kConfigOverrides) {
      if (value_of(arg, o.flag) != nullptr) override_flag = &o;
    }
    if (override_flag != nullptr) {
      const char* v = value_of(arg, override_flag->flag);
      SystemConfig scratch;
      Status st = override_flag->apply(v, &scratch);
      if (!st.ok()) {
        std::fprintf(stderr, "invalid %s value: %s\n", override_flag->flag,
                     st.ToString().c_str());
        return 2;
      }
      opts.overrides[override_flag - kConfigOverrides] = v;
    } else if (const char* v = value_of(arg, "--jobs")) {
      if (!ParseNumber(v, &opts.jobs) || opts.jobs < 1 || opts.jobs > 1 << 20) {
        std::fprintf(stderr, "invalid --jobs value: %s\n", v);
        return 2;
      }
    } else if (const char* v = value_of(arg, "--seed")) {
      if (!ParseNumber(v, &opts.seed)) {
        std::fprintf(stderr, "invalid --seed value: %s\n", v);
        return 2;
      }
    } else if (const char* v = value_of(arg, "--csv")) {
      opts.csv_path = v;
    } else if (const char* v = value_of(arg, "--filter")) {
      opts.filter = v;
    } else if (const char* v = value_of(arg, "--report-json")) {
      opts.report_json = v;
    } else if (const char* v = value_of(arg, "--trace")) {
      opts.trace_path = v;
    } else if (std::strcmp(arg, "--fast") == 0) {
      internal::fast_mode = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      opts.list_only = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      opts.quiet = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      std::fprintf(stderr,
                   "usage: %s [--jobs=N] [--csv=PATH] [--filter=SUBSTR] "
                   "[--seed=S] [--fast] [--list] [--quiet] "
                   "[--report-json=PATH] [--trace=PATH] [--faults=SPEC] "
                   "[--migration-bw=MB] [--eviction=POLICY]\n"
                   "\n"
                   "  --jobs=N             run sweep points on N worker "
                   "threads (each simulation is single-threaded)\n",
                   argv[0]);
      for (const ConfigOverride& o : kConfigOverrides) {
        std::fprintf(stderr, "%s\n", o.help);
      }
      std::fputs(R"(
--faults=SPEC clause grammar (clauses joined by ';', parse errors quote the
offending clause and its byte offset; docs/robustness.md has the semantics):

  clause                          effect
  ------------------------------  --------------------------------------------
  crash@<ms>:pe<N>                crash PE N at <ms>
  recover@<ms>:pe<N>              recover PE N at <ms>
  slowdisk@<ms>:pe<N>:x<M>        multiply PE N's disk service by M (>=1)
  partition@<ms>:pe<A>-pe<B>      cut the A<->B link
  heal@<ms>:pe<A>-pe<B>           restore the A<->B link
  slowlink@<ms>:pe<A>-pe<B>:x<M>  multiply the A<->B wire delay by M (>=1)
  addpe@<ms>:pe<N>                elastic resize: spare PE N joins at <ms>
  drainpe@<ms>:pe<N>              elastic resize: migrate PE N out, then leave
  rate=<r>                        random crashes per PE per minute
  mttr=<ms>                       mean time to repair for random crashes
  timeout=<ms>                    per-query deadline (0 disables)
  timeout_frac=<f>                fraction of queries carrying the deadline
  retries=<n>                     retry budget per query (RetryPolicy)
  iorate=<r>                      transient disk error probability per access
)",
                 stderr);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      return 2;
    }
  }
  return -1;
}

/// Applies the override flags in `opts` to `cfg` and validates the result.
inline Status ApplyOverrides(const BenchOptions& opts, SystemConfig* cfg) {
  for (size_t i = 0; i < std::size(kConfigOverrides); ++i) {
    if (opts.overrides[i]) {
      PDBLB_RETURN_IF_ERROR(kConfigOverrides[i].apply(*opts.overrides[i], cfg));
    }
  }
  return cfg->Validate();
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

/// Appends one point's columns of `block` (engine/metrics.h ReportBlock)
/// to `out`, in the block's column order, each rendered by
/// text(field, value).
template <typename Text>
void AppendBlockColumns(ReportBlock block, const MetricsReport& r, Text text,
                        std::vector<std::string>* out) {
  const size_t first = out->size();
  ForEachScalarReportField([&](const ReportField& field, auto member) {
    if (field.block != block) return;
    const size_t i = first + field.column;
    if (out->size() <= i) out->resize(i + 1);
    (*out)[i] = text(field, r.*member);
  });
}

/// True when some point has a nonzero activity column in `block`.  Gates
/// the block's table and JSON array, so runs without faults (or without
/// resizes) print exactly their historical output.
inline bool AnyActivity(ReportBlock block,
                        const std::vector<runner::SweepResult>& results) {
  bool any = false;
  for (const runner::SweepResult& res : results) {
    ForEachScalarReportField([&](const ReportField& field, auto member) {
      if (field.block == block && field.activity && res.report.*member != 0) {
        any = true;
      }
    });
  }
  return any;
}

/// Prints the robustness or elasticity table (stdout): one row per point.
inline void PrintBlockTable(ReportBlock block, const Figure& fig,
                            const std::vector<runner::SweepResult>& results) {
  if (!AnyActivity(block, results)) return;
  std::printf("\n=== %s (%s) ===\n", ReportBlockName(block),
              fig.title().c_str());
  std::vector<std::string> header = {fig.x_name(), "strategy"};
  AppendBlockColumns(
      block, MetricsReport{},
      [](const ReportField& field, auto) { return std::string(field.label); },
      &header);
  TextTable t(std::move(header));
  for (const runner::SweepResult& res : results) {
    std::vector<std::string> row = {res.point.x_label, res.point.series};
    AppendBlockColumns(
        block, res.report,
        [](const ReportField&, auto value) {
          return FormatReportValue(value, 0);
        },
        &row);
    t.AddRow(std::move(row));
  }
  std::fputs(t.ToString().c_str(), stdout);
}

/// The --report-json array of the robustness or elasticity block:
/// `, "<block>": [{"point": ..., <key>: <value>, ...}, ...]`, or nothing.
inline std::string BlockJson(ReportBlock block,
                             const std::vector<runner::SweepResult>& results) {
  if (!AnyActivity(block, results)) return "";
  std::string out = ", \"" + std::string(ReportBlockName(block)) + "\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    out += (i == 0 ? "{\"point\": \"" : ", {\"point\": \"") +
           results[i].point.name + '"';
    std::vector<std::string> entries;
    AppendBlockColumns(
        block, results[i].report,
        [](const ReportField& field, auto value) {
          return ", \"" + std::string(field.json) +
                 "\": " + FormatReportValue(value, field.decimals);
        },
        &entries);
    for (const std::string& entry : entries) out += entry;
    out += '}';
  }
  return out + ']';
}

/// Per-subsystem attribution summed over all points of a sweep (zeros when
/// tracing was off).
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

  for (runner::SweepPoint& p : fig.sweep().mutable_points()) {
    Status st = ApplyOverrides(opts, &p.config);
    if (!st.ok()) {
      std::fprintf(stderr, "invalid config for point %s: %s\n",
                   p.name.c_str(), st.ToString().c_str());
      return 2;
    }
  }

  runner::SweepOptions run_opts;
  run_opts.jobs = opts.jobs;
  run_opts.root_seed = opts.seed;
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
  PrintBlockTable(ReportBlock::kRobustness, fig, results);
  PrintBlockTable(ReportBlock::kElasticity, fig, results);
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
    for (ReportBlock block :
         {ReportBlock::kRobustness, ReportBlock::kElasticity}) {
      std::fputs(BlockJson(block, results).c_str(), f);
    }
    std::fprintf(f, "}\n");
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "cannot write %s\n", opts.report_json.c_str());
      return 1;
    }
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
