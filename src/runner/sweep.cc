// Copyright 2026 the pdblb authors. MIT license.

#include "runner/sweep.h"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
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
        if (options.derive_point_seeds) {
          cfg.seed = PointSeed(options.root_seed, point.declared_index);
        }
        if (!options.trace_path.empty()) {
          cfg.trace.enabled = true;
          cfg.trace.capacity = options.trace_capacity;
        }
        if (!options.fault_spec.empty()) {
          Status st = ParseFaultSpec(options.fault_spec, &cfg.faults);
          if (!st.ok()) throw std::runtime_error(st.ToString());
        }
        if (options.query_timeout_ms >= 0.0) {
          cfg.faults.query_timeout_ms = options.query_timeout_ms;
        }
        if (options.migration_bw_mbps > 0.0) {
          cfg.elastic.migration_bw_mbps = options.migration_bw_mbps;
        }
        if (!options.eviction.empty()) {
          Status st = ParseEvictionPolicy(options.eviction,
                                          &cfg.buffer.eviction);
          if (!st.ok()) throw std::runtime_error(st.ToString());
        }
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
          // PDBLB_TRACE=OFF builds have no tracer on the cluster; an empty
          // Tracer (compiled unconditionally) writes the identical
          // header-only file, keeping the --trace file set and format the
          // same across build modes.
          Status st = cluster.tracer() != nullptr
                          ? cluster.tracer()->WriteCsv(path)
                          : sim::Tracer(/*capacity=*/1).WriteCsv(path);
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
  std::string out =
      "name,x,series,join_rt_ms,avg_degree,cpu_util,disk_util,"
      "mem_util,temp_pages_per_join,join_qps,oltp_rt_ms,oltp_tps,"
      "scan_rt_ms,update_rt_ms,multiway_rt_ms,lock_waits,"
      "queries_timed_out,queries_retried,queries_failed,queries_degraded,"
      "pe_crashes,pe_recoveries,"
      "queries_shed,io_errors,io_retries,link_partitions,slow_disk_ms,"
      "pes_added,pes_drained,fragments_migrated,migration_pages_moved,"
      "migration_pages_discarded,migrations_replanned,"
      "buf_hit_ratio,buf_hits,buf_misses,buf_evictions,buf_writebacks,"
      "kernel_events,kernel_handoffs,seed\n";
  for (const SweepResult& res : results) {
    const MetricsReport& r = res.report;
    // Point/series names are caller-controlled and unbounded, so size the
    // row exactly instead of risking silent truncation of a fixed buffer.
    auto format_row = [&](char* buf, size_t cap) {
      return std::snprintf(
          buf, cap,
          "\"%s\",%s,\"%s\",%.3f,%.3f,%.4f,%.4f,%.4f,%.2f,%.3f,%.3f,%.3f,"
          "%.3f,%.3f,%.3f,%lld,%lld,%lld,%lld,%lld,%lld,%lld,"
          "%lld,%lld,%lld,%lld,%.3f,"
          "%lld,%lld,%lld,%lld,%lld,%lld,"
          "%.4f,%lld,%lld,%lld,%lld,%llu,%llu,"
          "%llu\n",
          res.point.name.c_str(), res.point.x_label.c_str(),
          res.point.series.c_str(), r.join_rt_ms, r.avg_degree,
          r.cpu_utilization, r.disk_utilization, r.memory_utilization,
          r.temp_pages_written_per_join, r.join_throughput_qps, r.oltp_rt_ms,
          r.oltp_throughput_tps, r.scan_rt_ms, r.update_rt_ms,
          r.multiway_rt_ms, static_cast<long long>(r.lock_waits),
          static_cast<long long>(r.queries_timed_out),
          static_cast<long long>(r.queries_retried),
          static_cast<long long>(r.queries_failed),
          static_cast<long long>(r.queries_degraded),
          static_cast<long long>(r.pe_crashes),
          static_cast<long long>(r.pe_recoveries),
          static_cast<long long>(r.queries_shed),
          static_cast<long long>(r.io_errors),
          static_cast<long long>(r.io_retries),
          static_cast<long long>(r.link_partitions), r.slow_disk_ms,
          static_cast<long long>(r.pes_added),
          static_cast<long long>(r.pes_drained),
          static_cast<long long>(r.fragments_migrated),
          static_cast<long long>(r.migration_pages_moved),
          static_cast<long long>(r.migration_pages_discarded),
          static_cast<long long>(r.migrations_replanned),
          r.buffer_hit_ratio, static_cast<long long>(r.buffer_hits),
          static_cast<long long>(r.buffer_misses),
          static_cast<long long>(r.buffer_evictions),
          static_cast<long long>(r.buffer_writebacks),
          static_cast<unsigned long long>(r.kernel_events),
          static_cast<unsigned long long>(r.kernel_handoffs),
          static_cast<unsigned long long>(res.point.config.seed));
    };
    int needed = format_row(nullptr, 0);
    std::string line(static_cast<size_t>(needed) + 1, '\0');
    format_row(line.data(), line.size());
    line.resize(static_cast<size_t>(needed));  // drop the NUL
    out += line;
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
