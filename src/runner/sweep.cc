// Copyright 2026 the pdblb authors. MIT license.

#include "runner/sweep.h"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "simkern/tracer.h"

#include "engine/cluster.h"
#include "simkern/task.h"

namespace pdblb::runner {

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

  std::atomic<size_t> next_index{0};
  std::atomic<size_t> finished{0};
  std::mutex callback_mutex;
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&]() {
    for (;;) {
      size_t i = next_index.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
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
        sim::TrimFrameArenaThreadCache();  // don't strand frames on exit
        return;
      }
      // Heterogeneous grids allocate very different coroutine-frame sizes
      // per point; returning the thread's free lists here keeps a worker
      // from holding the peak of every point it ever ran.
      sim::TrimFrameArenaThreadCache();
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
  std::fclose(f);
  if (written != csv.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace pdblb::runner
