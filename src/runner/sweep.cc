// Copyright 2026 the pdblb authors. MIT license.

#include "runner/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "simkern/tracer.h"

#include "engine/cluster.h"
#include "simkern/task.h"

namespace pdblb::runner {
namespace {

// Hands back what a finished point freed, so a worker does not keep the
// high-water mark of every point it ran.  The arena trim only moves the
// thread's recycled coroutine frames onto malloc's free lists, which stay
// in the process; malloc_trim returns malloc's free pages to the OS.
void ReleaseFreedMemory() {
  sim::TrimFrameArenaThreadCache();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

uint64_t PointSeed(uint64_t root_seed, size_t grid_index) {
  // splitmix64 finalizer over the pair; the golden-ratio offset keeps
  // index 0 from collapsing onto the raw root seed.
  uint64_t x = root_seed + 0x9e3779b97f4a7c15ULL * (grid_index + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t Sweep::Filter(const std::string& substring) {
  if (substring.empty()) return points_.size();
  std::vector<SweepPoint> kept;
  kept.reserve(points_.size());
  for (SweepPoint& p : points_) {
    if (p.name.find(substring) != std::string::npos) {
      kept.push_back(std::move(p));
    }
  }
  points_ = std::move(kept);
  return points_.size();
}

std::vector<SweepResult> Sweep::Run(const SweepOptions& options) const {
  const size_t total = points_.size();
  std::vector<SweepResult> results(total);
  if (total == 0) return results;

  // Longest first: the largest clusters cost the most host time, so they
  // start before the small ones instead of forming the tail of the grid.
  // Stable, so points of one size keep grid order.
  std::vector<size_t> order(total);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return points_[a].config.num_pes > points_[b].config.num_pes;
  });

  std::atomic<size_t> next_index{0};
  std::atomic<size_t> finished{0};
  std::mutex callback_mutex;
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&]() {
    for (;;) {
      size_t next = next_index.fetch_add(1, std::memory_order_relaxed);
      if (next >= total) return;
      const size_t i = order[next];
      const SweepPoint& point = points_[i];
      try {
        SystemConfig cfg = point.config;
        cfg.seed = PointSeed(options.root_seed, point.declared_index);
        if (!options.trace_path.empty()) cfg.trace.enabled = true;
        Cluster cluster(cfg);
        SweepResult& slot = results[i];
        slot.grid_index = i;
        slot.point = point;
        slot.point.config = cfg;  // record the effective (seeded) config
        slot.report = cluster.Run();
        if (!options.trace_path.empty()) {
          // Per-point trace dump, named by the declared grid index so a
          // filtered or multi-job run produces the same files.  Distinct
          // paths per point: safe to write from concurrent workers.
          std::string path = options.trace_path + "." +
                             std::to_string(point.declared_index) + ".csv";
          Status st = cluster.tracer()->WriteCsv(path);
          if (!st.ok()) throw std::runtime_error(st.ToString());
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        next_index.store(total, std::memory_order_relaxed);  // drain queue
        ReleaseFreedMemory();
        return;
      }
      ReleaseFreedMemory();
      size_t done = finished.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options.on_point_done) {
        std::lock_guard<std::mutex> lock(callback_mutex);
        options.on_point_done(point, results[i].report, done, total);
      }
    }
  };

  size_t jobs = options.jobs < 1 ? 1 : static_cast<size_t>(options.jobs);
  if (jobs > total) jobs = total;
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

std::string ResultsCsv(const std::vector<SweepResult>& results) {
  std::string out = "name,x,series";
  ForEachScalarReportField([&](const ReportField& field, auto) {
    if (field.csv == nullptr) return;
    out += ',';
    out += field.csv;
  });
  out += ",seed\n";
  for (const SweepResult& res : results) {
    out += '"' + res.point.name + "\"," + res.point.x_label + ",\"" +
           res.point.series + '"';
    ForEachScalarReportField([&](const ReportField& field, auto member) {
      if (field.csv == nullptr) return;
      out += ',';
      out += FormatReportValue(res.report.*member, field.decimals);
    });
    out += ',' + std::to_string(res.point.config.seed) + '\n';
  }
  return out;
}

Status WriteResultsCsv(const std::string& path,
                       const std::vector<SweepResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write CSV to " + path);
  }
  std::string csv = ResultsCsv(results);
  size_t written = std::fwrite(csv.data(), 1, csv.size(), f);
  // A full disk may show only when fclose flushes the buffer.
  const bool ok = written == csv.size() && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace pdblb::runner
