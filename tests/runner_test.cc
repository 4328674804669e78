// Copyright 2026 the pdblb authors. MIT license.
//
// The experiment runner's determinism contract: a sweep grid produces the
// same results — field-identical reports and byte-identical CSV — no matter
// how many worker threads execute it, because per-point seeds derive from
// (root seed, grid index) and each point runs a private Cluster.  Also
// covers the single-shot Cluster diagnostic and the frame-arena trim hook
// the runner calls between points.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "engine/cluster.h"
#include "expect_identical_reports.h"
#include "runner/sweep.h"
#include "simkern/task.h"

namespace pdblb {
namespace {

/// A small heterogeneous grid: two system sizes x two strategies plus one
/// single-user point, cheap enough to run several times per test binary.
runner::Sweep SmallGrid() {
  runner::Sweep sweep;
  for (int n : {8, 10}) {
    for (const StrategyConfig& strategy :
         {strategies::PmuCpuLUM(), strategies::PsuOptRandom()}) {
      SystemConfig cfg;
      cfg.num_pes = n;
      cfg.strategy = strategy;
      cfg.warmup_ms = 300.0;
      cfg.measurement_ms = 1000.0;
      sweep.Add({"grid/" + strategy.Name() + "/" + std::to_string(n),
                 strategy.Name(), static_cast<double>(n), std::to_string(n),
                 cfg});
    }
  }
  SystemConfig su;
  su.num_pes = 8;
  su.single_user_mode = true;
  su.single_user_queries = 5;
  su.strategy = strategies::PsuOptLUM();
  sweep.Add({"grid/single-user/8", "single-user", 8.0, "8", su});
  return sweep;
}

TEST(RunnerTest, ParallelMatchesSerialBitIdentical) {
  runner::Sweep sweep = SmallGrid();

  std::vector<std::vector<runner::SweepResult>> all;
  for (int jobs : {1, 2, 4}) {
    runner::SweepOptions opts;
    opts.jobs = jobs;
    all.push_back(sweep.Run(opts));
  }

  const std::string serial_csv = runner::ResultsCsv(all[0]);
  for (size_t v = 1; v < all.size(); ++v) {
    ASSERT_EQ(all[0].size(), all[v].size());
    for (size_t i = 0; i < all[0].size(); ++i) {
      EXPECT_EQ(all[v][i].grid_index, i);
      EXPECT_EQ(all[0][i].point.name, all[v][i].point.name);
      ExpectIdenticalReports(all[0][i].report, all[v][i].report);
    }
    // The acceptance bar: --jobs=N emits byte-identical CSV to --jobs=1.
    EXPECT_EQ(serial_csv, runner::ResultsCsv(all[v]));
  }
}

TEST(RunnerTest, PointSeedsDeriveFromRootSeedAndGridIndex) {
  EXPECT_EQ(runner::PointSeed(42, 0), runner::PointSeed(42, 0));
  EXPECT_NE(runner::PointSeed(42, 0), runner::PointSeed(42, 1));
  EXPECT_NE(runner::PointSeed(42, 0), runner::PointSeed(43, 0));

  runner::Sweep sweep = SmallGrid();
  runner::SweepOptions opts;
  opts.jobs = 2;
  opts.root_seed = 7;
  std::vector<runner::SweepResult> results = sweep.Run(opts);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].point.config.seed, runner::PointSeed(7, i));
  }

  // A different root seed must actually change the simulations (the short
  // window may complete zero joins, so compare the kernel event count,
  // which registers every shifted arrival).
  runner::SweepOptions other = opts;
  other.root_seed = 8;
  std::vector<runner::SweepResult> shifted = sweep.Run(other);
  EXPECT_NE(results[0].report.kernel_events, shifted[0].report.kernel_events);
}

// perfbench's statistics gate and plotting scripts find columns by name, so
// the 41-column header is pinned: adding or renaming a column updates it.
TEST(RunnerTest, CsvHeaderIsPinned) {
  EXPECT_EQ(runner::ResultsCsv({}),
            "name,x,series,join_rt_ms,avg_degree,cpu_util,disk_util,"
            "mem_util,temp_pages_per_join,join_qps,oltp_rt_ms,oltp_tps,"
            "scan_rt_ms,update_rt_ms,multiway_rt_ms,lock_waits,"
            "queries_timed_out,queries_retried,queries_failed,"
            "queries_degraded,pe_crashes,pe_recoveries,"
            "queries_shed,io_errors,io_retries,link_partitions,slow_disk_ms,"
            "pes_added,pes_drained,fragments_migrated,migration_pages_moved,"
            "migration_pages_discarded,migrations_replanned,"
            "buf_hit_ratio,buf_hits,buf_misses,buf_evictions,buf_writebacks,"
            "kernel_events,kernel_handoffs,seed\n");
}

TEST(RunnerTest, CsvWriteFailureIsReported) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // The header alone fits the stdio buffer: the write fails at the flush.
  EXPECT_EQ(runner::WriteResultsCsv("/dev/full", {}).code(),
            StatusCode::kIoError);
}

TEST(RunnerTest, FilterKeepsMatchingPointsInGridOrder) {
  runner::Sweep sweep = SmallGrid();
  const size_t before = sweep.size();
  size_t kept = sweep.Filter("/10");
  EXPECT_LT(kept, before);
  EXPECT_EQ(kept, sweep.size());
  ASSERT_EQ(kept, 2u);
  for (const runner::SweepPoint& p : sweep.points()) {
    EXPECT_NE(p.name.find("/10"), std::string::npos);
  }
  // Seeds follow the declared grid index, not the post-filter position:
  // the first survivor was declared at index 2, so a filtered run is a
  // true subset of the full sweep.
  std::vector<runner::SweepResult> results = sweep.Run({});
  EXPECT_EQ(results[0].point.config.seed, runner::PointSeed(42, 2));

  std::vector<runner::SweepResult> full = SmallGrid().Run({});
  ASSERT_EQ(full[2].point.name, results[0].point.name);
  ExpectIdenticalReports(full[2].report, results[0].report);
}

TEST(RunnerTest, CallbackSeesEveryPointExactlyOnce) {
  runner::Sweep sweep = SmallGrid();
  std::atomic<size_t> calls{0};
  size_t max_finished = 0;
  runner::SweepOptions opts;
  opts.jobs = 2;
  opts.on_point_done = [&](const runner::SweepPoint&, const MetricsReport&,
                           size_t finished, size_t total) {
    calls.fetch_add(1);
    EXPECT_EQ(total, sweep.size());
    if (finished > max_finished) max_finished = finished;  // serialized
  };
  sweep.Run(opts);
  EXPECT_EQ(calls.load(), sweep.size());
  EXPECT_EQ(max_finished, sweep.size());
}

TEST(RunnerTest, ClusterRunIsSingleShot) {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.warmup_ms = 200.0;
  cfg.measurement_ms = 600.0;
  Cluster cluster(cfg);
  cluster.Run();
  EXPECT_THROW(cluster.Run(), std::logic_error);
}

TEST(RunnerTest, TrimThreadCachePreservesDeterminism) {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.warmup_ms = 300.0;
  cfg.measurement_ms = 1000.0;

  Cluster first(cfg);
  MetricsReport a = first.Run();
  // Empty this thread's recycled frame lists (what a sweep worker does
  // after every point), then run again: the arena refills lazily and the
  // simulation must be unaffected.
  sim::TrimFrameArenaThreadCache();
  Cluster second(cfg);
  MetricsReport b = second.Run();
  ExpectIdenticalReports(a, b);
  // Trimming twice in a row (empty free lists) must be a no-op.
  sim::TrimFrameArenaThreadCache();
  sim::TrimFrameArenaThreadCache();
}

}  // namespace
}  // namespace pdblb
