// Copyright 2026 the pdblb authors. MIT license.
//
// Experiment runner: executes a declared grid of simulation configurations
// ("sweep points") on a pool of worker threads and collects the results in
// deterministic grid order.  Every figure and ablation driver in bench/ is a
// thin declaration of such a grid; the runner is the shared machinery that
// turns it into numbers.
//
//   runner::Sweep sweep;
//   sweep.Add({"fig5/LUM/40", "LUM", 40, "40", cfg});
//   for (runner::SweepPoint& p : sweep.mutable_points()) {
//     p.config.buffer.eviction = EvictionPolicyKind::kClock;  // an override
//   }
//   runner::SweepOptions opts;
//   opts.jobs = 8;
//   std::vector<runner::SweepResult> r = sweep.Run(opts);   // grid order
//   runner::WriteResultsCsv("fig5.csv", r);
//
// Determinism contract: the result vector and the CSV depend only on the
// grid declaration and the root seed — never on the number of workers or on
// thread scheduling.  Three mechanisms guarantee this:
//  * each point runs a private Cluster (own Scheduler, RNG streams, stats);
//    the simulation library keeps no cross-instance mutable state;
//  * the per-point seed derives from (root seed, grid index), not from
//    execution order: point i sees the same seed whether it runs first on
//    one thread or last of eight;
//  * results land in a pre-sized slot per grid index and the CSV contains
//    only simulation-deterministic fields (no wall-clock rates).

#ifndef PDBLB_RUNNER_SWEEP_H_
#define PDBLB_RUNNER_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "engine/metrics.h"

namespace pdblb::runner {

/// Per-point seed derivation: splitmix64 over (root_seed, grid_index).
/// Stable across runs, platforms and worker counts, and distinct points get
/// decorrelated streams even for adjacent grid indices.
uint64_t PointSeed(uint64_t root_seed, size_t grid_index);

/// One declared grid point of a figure/ablation sweep.
struct SweepPoint {
  std::string name;     ///< unique path-style id, e.g. "fig5/p_su-opt+LUM/40"
  std::string series;   ///< figure legend entry this point belongs to
  double x = 0.0;       ///< numeric x coordinate (for plotting/sorting)
  std::string x_label;  ///< printed x value, e.g. "40" or "1.0%"
  SystemConfig config;  ///< full simulation configuration for the point
  /// Position in the grid as declared (assigned by Sweep::Add, stable
  /// across Filter).  Seeds derive from this, so a filtered re-run
  /// reproduces exactly the points of the full sweep.
  size_t declared_index = 0;
};

/// One completed grid point, in declaration order.
struct SweepResult {
  size_t grid_index = 0;
  SweepPoint point;
  MetricsReport report;
};

struct SweepOptions {
  /// Worker threads; clamped to [1, #points].  Results are identical for
  /// every value — jobs only changes wall-clock time.
  int jobs = 1;

  /// Root seed of the experiment.  Each point runs with
  /// config.seed = PointSeed(root_seed, point.declared_index).
  uint64_t root_seed = 42;

  /// Invoked after each completed point (serialized under an internal
  /// mutex, so it may print).  `finished` counts completed points, in
  /// completion — not grid — order.
  std::function<void(const SweepPoint& point, const MetricsReport& report,
                     size_t finished, size_t total)>
      on_point_done;

  /// When non-empty, event tracing is enabled for every point (overriding
  /// point.config.trace.enabled) and each point's retained trace is dumped
  /// to "<trace_path>.<declared_index>.csv" as it completes.  File names
  /// derive from the grid index, so — like the CSV — the set of trace
  /// files and their bytes are identical for every --jobs value.  In
  /// PDBLB_TRACE=OFF builds each file holds only the CSV header.
  std::string trace_path;
};

/// A declared grid of sweep points.
class Sweep {
 public:
  void Add(SweepPoint point) {
    point.declared_index = points_.size();
    points_.push_back(std::move(point));
  }

  /// Keeps only points whose name contains `substring`, preserving grid
  /// order and each survivor's declared_index (hence its derived seed —
  /// `--filter` is a true subset run of the full sweep).  Returns the
  /// number of survivors.
  size_t Filter(const std::string& substring);

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const std::vector<SweepPoint>& points() const { return points_; }
  /// For patching the points' configs before Run (the drivers' config
  /// overrides); callers must not add, drop or reorder points.
  std::vector<SweepPoint>& mutable_points() { return points_; }

  /// Executes every point and returns the results in grid order.  Safe to
  /// call from one thread at a time; the Sweep itself is not mutated.
  /// Exceptions thrown by a point (e.g. Cluster misuse) abort the remaining
  /// queue and are rethrown on the calling thread.
  std::vector<SweepResult> Run(const SweepOptions& options = {}) const;

 private:
  std::vector<SweepPoint> points_;
};

/// CSV header + rows, in grid order: the point's name, x and series, every
/// CSV column of the MetricsReport declaration (engine/metrics.h), then the
/// point's seed.  Host-measured fields (kernel_events_per_sec,
/// wall_seconds) have no column, so the bytes are identical for every
/// --jobs value.
std::string ResultsCsv(const std::vector<SweepResult>& results);

/// Writes ResultsCsv(results) to `path`.
Status WriteResultsCsv(const std::string& path,
                       const std::vector<SweepResult>& results);

}  // namespace pdblb::runner

#endif  // PDBLB_RUNNER_SWEEP_H_
