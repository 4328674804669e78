// Copyright 2026 the pdblb authors. MIT license.
//
// pdblb_perfbench: host-time benchmark of the pdblb simulator.
//
//   pdblb_perfbench --workload=join_cpu80 --seed=42 --seconds=10 --trace=0
//
// Runs one named workload through the public API (Cluster, runner::Sweep)
// for about --seconds of host time.  With --trace=0 it times untraced runs
// only (the end-to-end metrics).  With --trace=1 it also times traced runs,
// counts heap allocations in them, reads each layer's public counters and
// runs the standalone layer probes (the per-layer metrics).  Every point
// execution contributes a digest of its simulated statistics, so the
// caller can check that they match across repetitions, across tracing and
// against a stored reference.  Human-readable lines go to stdout; the last
// stdout line is one JSON object with the machine record, the samples, the
// digests and the metrics.  perfbench/run.py builds this binary, checks
// the digests and prints the summary.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "engine/cluster.h"
#include "engine/metrics.h"
#include "perfbench.h"
#include "runner/sweep.h"
#include "simkern/trace_ring.h"

namespace perfbench {

double NowSeconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

namespace {

using pdblb::Cluster;
using pdblb::MetricsReport;
using pdblb::StrategyConfig;
using pdblb::SystemConfig;
namespace runner = pdblb::runner;
namespace sim = pdblb::sim;
namespace strategies = pdblb::strategies;

// --- small helpers -------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonNumbers(const std::vector<double>& vs) {
  std::string out = "[";
  for (size_t i = 0; i < vs.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(vs[i]);
  }
  return out + "]";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// Peak resident memory of one repetition on its own: before it, the frame
// arena and malloc hand their free memory back to the kernel and the
// kernel's high-water mark is reset (Linux: /proc/self/clear_refs), so the
// peak is not the cumulative one of every repetition before.  Where the
// reset is unavailable the peak is the process-lifetime one.
void ResetPeakRss() {
  sim::TrimFrameArenaThreadCache();
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Splits one ResultsCsv line; point and series names are quoted and never
// contain quotes themselves.
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (char ch : line) {
    if (ch == '"') {
      quoted = !quoted;
    } else if (ch == ',' && !quoted) {
      fields.emplace_back();
    } else {
      fields.back() += ch;
    }
  }
  return fields;
}

/// FNV-1a over the point's runner::ResultsCsv fields (unquoted, joined by
/// ','), leaving out kernel_events and kernel_handoffs: those two count the
/// simulator's own work, which a speed-up may lower.  Every other column
/// is a simulated statistic and must not change.
std::string Digest(const runner::SweepPoint& point,
                   const MetricsReport& report) {
  runner::SweepResult result;
  result.grid_index = point.declared_index;
  result.point = point;
  result.report = report;
  const std::string csv = runner::ResultsCsv({result});
  const size_t nl = csv.find('\n');
  const std::vector<std::string> header = SplitCsvLine(csv.substr(0, nl));
  std::string row = csv.substr(nl + 1);
  while (!row.empty() && row.back() == '\n') row.pop_back();
  const std::vector<std::string> fields = SplitCsvLine(row);
  if (fields.size() != header.size()) {
    throw std::runtime_error("ResultsCsv row does not match its header");
  }
  std::string kept;
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "kernel_events" || header[i] == "kernel_handoffs") {
      continue;
    }
    if (!kept.empty()) kept += ',';
    kept += fields[i];
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : kept) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// --- command line ------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     // --horizon=tiny: self-test horizon
  bool perturb = false;  // self-test: a config the reference cannot match
  std::string spans_path;
  std::string cpu_model = "unknown";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      char* end = nullptr;
      o->seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      char* end = nullptr;
      o->seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(o->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o->trace = val == "1";
    } else if (key == "--horizon") {
      if (val != "standard" && val != "tiny") return false;
      o->tiny = val == "tiny";
    } else if (key == "--perturb") {
      o->perturb = true;
    } else if (key == "--spans") {
      o->spans_path = val;
    } else if (key == "--cpu-model") {
      o->cpu_model = val;
    } else if (key == "--commit") {
      o->commit = val;
    } else {
      return false;
    }
  }
  return !o->workload.empty();
}

// --- workloads -------------------------------------------------------------------

struct Horizon {
  double warmup_ms;
  double measurement_ms;
  int single_user_queries;
};
// The figure benches' --fast horizon (bench/bench_common.h), and a tiny
// one for the self-tests.
constexpr Horizon kFastHorizon{1500.0, 5000.0, 10};
constexpr Horizon kTinyHorizon{300.0, 1000.0, 2};

void ApplyHorizon(const Horizon& h, SystemConfig& cfg) {
  cfg.warmup_ms = h.warmup_ms;
  cfg.measurement_ms = h.measurement_ms;
  cfg.single_user_queries = h.single_user_queries;
}

const std::vector<StrategyConfig>& Fig5Strategies() {
  static const std::vector<StrategyConfig> kStrategies = {
      strategies::PsuNoIORandom(), strategies::PsuNoIOLUC(),
      strategies::PsuNoIOLUM(),    strategies::PsuOptRandom(),
      strategies::PsuOptLUC(),     strategies::PsuOptLUM(),
  };
  return kStrategies;
}

struct Workload {
  /// Replications of the workload's points, in figure grid order.  Each
  /// replication is the same grid under its own root seed (replication 0
  /// under --seed itself); the timed loop cycles through them, so a run's
  /// median spans several arrival streams instead of one.  declared_index
  /// is the point's index in its figure's grid and config.seed is already
  /// derived from it, so in replication 0 a point's statistics equal that
  /// figure's CSV row at the same seed and horizon.
  std::vector<std::vector<runner::SweepPoint>> replications;
  std::vector<uint64_t> root_seeds;
  bool grid = false;
  int jobs = 1;
  ProbeMix mix = ProbeMix::kScan;
  std::vector<StrategyConfig> plan_strategies;

  size_t ReplicationOf(size_t rep) const { return rep % replications.size(); }
  /// Timed loops run whole cycles through the replications, at least one,
  /// and stop at the first cycle boundary after `budget_s` has passed.
  bool KeepGoing(size_t rep, double start_s, double budget_s) const {
    return rep == 0 || rep % replications.size() != 0 ||
           NowSeconds() - start_s < budget_s;
  }
};

runner::SweepPoint MakePoint(std::string name, std::string series, int x,
                             SystemConfig cfg, size_t index, uint64_t seed) {
  cfg.seed = runner::PointSeed(seed, index);
  runner::SweepPoint p{std::move(name), std::move(series),
                       static_cast<double>(x), std::to_string(x),
                       std::move(cfg)};
  p.declared_index = index;
  return p;
}

// The fig5 grid (bench/fig5_static_degree.cc): six static strategies plus
// the single-user baseline at 10..80 PE.
std::vector<runner::SweepPoint> Fig5Points(const Horizon& h, uint64_t seed) {
  std::vector<runner::SweepPoint> points;
  for (int n : {10, 20, 40, 60, 80}) {
    for (const StrategyConfig& strategy : Fig5Strategies()) {
      SystemConfig cfg;
      cfg.num_pes = n;
      cfg.strategy = strategy;
      ApplyHorizon(h, cfg);
      points.push_back(MakePoint("fig5/" + strategy.Name() + "/" +
                                     std::to_string(n),
                                 strategy.Name(), n, cfg, points.size(),
                                 seed));
    }
    SystemConfig su;
    su.num_pes = n;
    su.single_user_mode = true;
    su.strategy = strategies::PsuOptLUM();
    ApplyHorizon(h, su);
    points.push_back(MakePoint("fig5/single-user(p_su-opt)/" +
                                   std::to_string(n),
                               "single-user (p_su-opt)", n, su,
                               points.size(), seed));
  }
  return points;
}

// fig9b OPT-IO-CPU at 80 PE with OLTP on the B nodes: grid index 49 of the
// fig9 bench (bench/fig9_heterogeneous.cc).
runner::SweepPoint MixedOltpPoint(const Horizon& h, uint64_t seed) {
  SystemConfig cfg;
  cfg.num_pes = 80;
  cfg.join_query.arrival_rate_per_pe_qps = 0.075;
  cfg.oltp.enabled = true;
  cfg.oltp.placement = pdblb::OltpPlacement::kBNodes;
  cfg.disk.disks_per_pe = 5;
  cfg.strategy = strategies::OptIOCpu();
  ApplyHorizon(h, cfg);
  const std::string name = cfg.strategy.Name();
  return MakePoint("fig9b/OLTP-on-B/" + name + "/80", "9b/OLTP-on-B " + name,
                   80, cfg, 49, seed);
}

bool MakeWorkload(const Options& o, Workload* w) {
  const Horizon& h = o.tiny ? kTinyHorizon : kFastHorizon;
  std::vector<runner::SweepPoint> (*declare)(const Horizon&, uint64_t);
  size_t replications = 8;
  if (o.workload == "join_cpu80") {
    // fig5 p_su-opt + LUM at 80 PE: grid index 33 of the fig5 bench.
    declare = [](const Horizon& hz, uint64_t seed) {
      return std::vector<runner::SweepPoint>{Fig5Points(hz, seed)[33]};
    };
    w->mix = ProbeMix::kScan;
    w->plan_strategies = {strategies::PsuOptLUM()};
  } else if (o.workload == "mixed_oltp80") {
    declare = [](const Horizon& hz, uint64_t seed) {
      return std::vector<runner::SweepPoint>{MixedOltpPoint(hz, seed)};
    };
    w->mix = ProbeMix::kOltp;
    w->plan_strategies = {strategies::OptIOCpu()};
  } else if (o.workload == "fig5_grid") {
    declare = Fig5Points;
    replications = 4;
    w->grid = true;
    const unsigned n = std::thread::hardware_concurrency();
    w->jobs = static_cast<int>(std::clamp(n, 1u, 4u));
    w->mix = ProbeMix::kScan;
    w->plan_strategies = Fig5Strategies();
  } else {
    return false;
  }
  for (size_t k = 0; k < replications; ++k) {
    const uint64_t root = k == 0 ? o.seed : runner::PointSeed(o.seed, k);
    w->root_seeds.push_back(root);
    w->replications.push_back(declare(h, root));
    if (o.perturb) {
      // One extra buffer frame per PE: a real simulated change the digest
      // gate must report.
      for (runner::SweepPoint& p : w->replications.back()) {
        p.config.buffer.buffer_pages += 1;
      }
    }
  }
  return true;
}

// --- layer counters ---------------------------------------------------------------

/// Public counters of every layer after one Cluster::Run.  Per-PE layer
/// counters are reset when the warm-up ends, so they cover the measurement
/// window plus the drain; the kernel counters cover the whole run.
struct LayerCounts {
  uint64_t events = 0;
  uint64_t handoffs = 0;
  std::array<uint64_t, sim::kNumTraceSubsystems> trace_events{};
  uint64_t cpu_services = 0;
  int64_t joins = 0;
  int64_t oltp = 0;
  int points = 0;
  double cpu_util_sum = 0.0;
  double disk_util_sum = 0.0;
  double mem_wait_sum = 0.0;
  double degree_x_joins = 0.0;
  int64_t logical_reads = 0;
  int64_t physical_reads = 0;
  int64_t cache_hits = 0;
  int64_t buffer_hits = 0;
  int64_t fetches = 0;
  int64_t evictions = 0;
  int64_t writebacks = 0;
  int64_t pages_stolen = 0;
  int64_t locks_granted = 0;
  int64_t lock_waits = 0;
  int64_t deadlock_aborts = 0;
  int64_t messages = 0;
  int64_t packets = 0;
  int64_t bytes = 0;
  int64_t temp_written = 0;
  int64_t temp_read = 0;

  static LayerCounts Read(Cluster& c, const MetricsReport& r) {
    LayerCounts l;
    l.events = r.kernel_events;
    l.handoffs = r.kernel_handoffs;
    for (size_t s = 0; s < sim::kNumTraceSubsystems; ++s) {
      l.trace_events[s] = r.trace_subsystem_events[s];
    }
    l.joins = r.joins_completed;
    l.oltp = r.oltp_completed;
    l.points = 1;
    l.cpu_util_sum = r.cpu_utilization;
    l.disk_util_sum = r.disk_utilization;
    l.mem_wait_sum = r.avg_memory_queue_wait_ms;
    l.degree_x_joins = r.avg_degree * static_cast<double>(r.joins_completed);
    l.buffer_hits = r.buffer_hits;
    l.fetches = r.buffer_hits + r.buffer_misses;
    l.evictions = r.buffer_evictions;
    l.writebacks = r.buffer_writebacks;
    for (int pe = 0; pe < c.num_pes(); ++pe) {
      pdblb::ProcessingElement& p = c.pe(pe);
      l.cpu_services += p.cpu().completed();
      l.logical_reads += p.disks().logical_reads();
      l.physical_reads += p.disks().physical_reads();
      l.cache_hits += p.disks().cache_hits();
      l.pages_stolen += p.buffer().pages_stolen();
      l.locks_granted += p.locks().locks_granted();
      l.lock_waits += p.locks().lock_waits();
      l.deadlock_aborts += p.locks().deadlock_aborts();
    }
    l.messages = c.net().messages_sent();
    l.packets = c.net().packets_sent();
    l.bytes = c.net().bytes_sent();
    l.temp_written = c.metrics().temp_pages_written();
    l.temp_read = c.metrics().temp_pages_read();
    return l;
  }

  void Add(const LayerCounts& o) {
    events += o.events;
    handoffs += o.handoffs;
    for (size_t s = 0; s < trace_events.size(); ++s) {
      trace_events[s] += o.trace_events[s];
    }
    cpu_services += o.cpu_services;
    joins += o.joins;
    oltp += o.oltp;
    points += o.points;
    cpu_util_sum += o.cpu_util_sum;
    disk_util_sum += o.disk_util_sum;
    mem_wait_sum += o.mem_wait_sum;
    degree_x_joins += o.degree_x_joins;
    logical_reads += o.logical_reads;
    physical_reads += o.physical_reads;
    cache_hits += o.cache_hits;
    buffer_hits += o.buffer_hits;
    fetches += o.fetches;
    evictions += o.evictions;
    writebacks += o.writebacks;
    pages_stolen += o.pages_stolen;
    locks_granted += o.locks_granted;
    lock_waits += o.lock_waits;
    deadlock_aborts += o.deadlock_aborts;
    messages += o.messages;
    packets += o.packets;
    bytes += o.bytes;
    temp_written += o.temp_written;
    temp_read += o.temp_read;
  }

  uint64_t dispatches() const { return events + handoffs; }

  void ToMetrics(Metrics& m) const {
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double n = std::max(points, 1);
    m["simkern.events"] = static_cast<double>(events);
    m["simkern.handoffs"] = static_cast<double>(handoffs);
    for (size_t s = 0; s < sim::kNumTraceSubsystems; ++s) {
      m[std::string("simkern.events.") + sim::TraceSubsystemName(s)] =
          static_cast<double>(trace_events[s]);
    }
    m["engine.cpu_services"] = static_cast<double>(cpu_services);
    m["engine.joins_completed"] = static_cast<double>(joins);
    m["engine.oltp_completed"] = static_cast<double>(oltp);
    m["engine.cpu_util"] = cpu_util_sum / n;
    m["iosim.logical_reads"] = static_cast<double>(logical_reads);
    m["iosim.physical_reads"] = static_cast<double>(physical_reads);
    m["iosim.cache_hits"] = static_cast<double>(cache_hits);
    m["iosim.cache_hit_ratio"] = ratio(cache_hits, logical_reads);
    m["iosim.disk_util"] = disk_util_sum / n;
    m["bufmgr.fetches"] = static_cast<double>(fetches);
    m["bufmgr.evictions"] = static_cast<double>(evictions);
    m["bufmgr.writebacks"] = static_cast<double>(writebacks);
    m["bufmgr.pages_stolen"] = static_cast<double>(pages_stolen);
    m["bufmgr.hit_ratio"] = ratio(buffer_hits, fetches);
    m["bufmgr.mem_queue_wait_ms"] = mem_wait_sum / n;
    m["lockmgr.locks_granted"] = static_cast<double>(locks_granted);
    m["lockmgr.lock_waits"] = static_cast<double>(lock_waits);
    m["lockmgr.deadlock_aborts"] = static_cast<double>(deadlock_aborts);
    m["netsim.messages"] = static_cast<double>(messages);
    m["netsim.packets"] = static_cast<double>(packets);
    m["netsim.bytes"] = static_cast<double>(bytes);
    m["core.avg_degree"] = ratio(degree_x_joins, static_cast<double>(joins));
    m["join.temp_pages_written"] = static_cast<double>(temp_written);
    m["join.temp_pages_read"] = static_cast<double>(temp_read);
  }
};

// --- calibration -------------------------------------------------------------------

// Reference time of one calibration loop: host_s and setup_s are reported
// in seconds of a host on which the loop takes this long (the Xeon the
// reference numbers came from takes about that when quiet).
constexpr double kReferenceCalibrationS = 0.030;

volatile uint64_t g_calibration_sink = 0;

/// Host seconds one thread takes for a fixed event loop: a binary heap of
/// timestamped events updating a 1 MiB table.  It is written here, outside
/// the library, so no change to pdblb moves it.
double CalibrationLoopSeconds() {
  constexpr uint32_t kTable = 1u << 18;
  std::vector<uint32_t> table(kTable);
  using Event = std::pair<double, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint32_t i = 0; i < 8192; ++i) {
    heap.push({static_cast<double>(next() % 1000), i});
  }
  const double t0 = NowSeconds();
  uint64_t sink = 0;
  for (int i = 0; i < 150000; ++i) {
    const Event e = heap.top();
    heap.pop();
    const uint32_t k = static_cast<uint32_t>(next()) & (kTable - 1);
    table[k] += e.second;
    sink += table[(k * 2654435761u) & (kTable - 1)];
    heap.push({e.first + static_cast<double>(next() % 1000), e.second});
  }
  const double t = NowSeconds() - t0;
  g_calibration_sink = sink;
  return t;
}

/// Sets repetition times against the host's current speed.  The loop runs
/// between repetitions, on as many threads at once as the workload uses,
/// and each repetition's time is divided by the mean of the loop times
/// before and after it.  This cancels most of the drift of a shared host
/// (other tenants, frequency), which moves a run's raw time by tens of
/// percent within minutes.
class Calibrator {
 public:
  explicit Calibrator(int threads) : threads_(threads) { last_ = Measure(); }

  /// Calibrates again and returns the factor that turns host seconds
  /// measured since the previous calibration into reference seconds.
  double Factor() {
    const double now = Measure();
    const double mean = 0.5 * (last_ + now);
    last_ = now;
    return kReferenceCalibrationS / mean;
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  double Measure() {
    std::vector<double> t(static_cast<size_t>(threads_));
    std::vector<std::thread> pool;
    for (int i = 1; i < threads_; ++i) {
      pool.emplace_back([&t, i] { t[i] = CalibrationLoopSeconds(); });
    }
    t[0] = CalibrationLoopSeconds();
    for (std::thread& th : pool) th.join();
    // The runner hands points to whichever worker is free, so a parallel
    // workload runs at the threads' combined rate: average the rates, not
    // the times (one slowed core must not count as the whole host).
    double rate = 0.0;
    for (double ti : t) rate += 1.0 / ti;
    samples_.push_back(threads_ / rate);
    return samples_.back();
  }

  int threads_;
  double last_ = 0.0;
  std::vector<double> samples_;
};

// --- executions ------------------------------------------------------------------

struct Execution {
  size_t replication = 0;
  std::string point;
  bool traced = false;
  std::string digest;
};

struct PointRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  uint64_t allocs = 0;
  LayerCounts counts;
  Execution exec;
};

/// Constructs, runs and digests one point on the calling thread.  Traced
/// runs count heap allocations during Run (construction excluded).
PointRun RunPoint(const runner::SweepPoint& point, size_t replication,
                  bool traced, SpanLog& spans, std::mutex& spans_mu,
                  int parent) {
  SystemConfig cfg = point.config;
  cfg.trace.enabled = traced;
  const double t0 = NowSeconds();
  auto cluster = std::make_unique<Cluster>(cfg);
  const double t1 = NowSeconds();
  const uint64_t allocs0 = AllocCount();
  const MetricsReport report = cluster->Run();
  const double t2 = NowSeconds();
  PointRun r;
  r.setup_s = t1 - t0;
  r.run_s = t2 - t1;
  r.allocs = AllocCount() - allocs0;
  r.counts = LayerCounts::Read(*cluster, report);
  r.exec = Execution{replication, point.name, traced, Digest(point, report)};
  {
    std::lock_guard<std::mutex> lock(spans_mu);
    const int id = spans.Add("point " + point.name, parent, t0, t2);
    spans.Add("construct", id, t0, t1);
    spans.Add("run", id, t1, t2);
  }
  return r;
}

/// Runs one replication's points once each on `jobs` threads of the
/// benchmark's own (the runner hides each point's Cluster, whose counters
/// the traced pass reads).  Results are in grid order.
std::vector<PointRun> RunPointsParallel(const Workload& w, size_t k,
                                        bool traced, SpanLog& spans,
                                        int parent) {
  const std::vector<runner::SweepPoint>& points = w.replications[k];
  std::vector<PointRun> out(points.size());
  std::atomic<size_t> next{0};
  std::mutex spans_mu;
  std::mutex error_mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (size_t i = next++; i < points.size(); i = next++) {
      try {
        out[i] = RunPoint(points[i], k, traced, spans, spans_mu, parent);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      sim::TrimFrameArenaThreadCache();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < w.jobs; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return out;
}

/// One untraced Sweep::Run over replication `k` of the grid.
struct GridRun {
  double host_s = 0.0;
  std::vector<double> point_run_s;  // per point, grid order
  double dispatches = 0.0;          // kernel events + hand-offs, all points
  std::vector<Execution> execs;
};

GridRun RunGrid(const Workload& w, size_t k, SpanLog& spans, int parent) {
  runner::Sweep sweep;
  for (const runner::SweepPoint& p : w.replications[k]) sweep.Add(p);
  runner::SweepOptions opts;
  opts.jobs = w.jobs;
  opts.root_seed = w.root_seeds[k];
  std::vector<double> done_at(sweep.size(), 0.0);
  opts.on_point_done = [&](const runner::SweepPoint& p, const MetricsReport&,
                           size_t, size_t) {
    done_at[p.declared_index] = NowSeconds();
  };
  const int id = spans.Begin("Sweep::Run", parent);
  const double t0 = NowSeconds();
  const std::vector<runner::SweepResult> results = sweep.Run(opts);
  GridRun g;
  g.host_s = NowSeconds() - t0;
  spans.End(id);
  for (const runner::SweepResult& r : results) {
    // Sweep::Run records the effective (seeded) config in the result.
    g.point_run_s.push_back(r.report.wall_seconds);
    g.dispatches += static_cast<double>(r.report.kernel_events +
                                        r.report.kernel_handoffs);
    g.execs.push_back(
        Execution{k, r.point.name, false, Digest(r.point, r.report)});
    const double end = done_at[r.point.declared_index];
    spans.Add("point " + r.point.name, id, end - r.report.wall_seconds, end);
  }
  return g;
}

/// Seconds to construct every point's Cluster, one after another.
double SetupSeconds(const std::vector<runner::SweepPoint>& points,
                    SpanLog& spans, int parent) {
  double total = 0.0;
  for (const runner::SweepPoint& p : points) {
    const double t0 = NowSeconds();
    auto cluster = std::make_unique<Cluster>(p.config);
    const double t1 = NowSeconds();
    total += t1 - t0;
    spans.Add("construct " + p.name, parent, t0, t1);
  }
  return total;
}

// --- output ------------------------------------------------------------------------

struct Output {
  Metrics metrics;
  // Raw host seconds as measured, before calibration.
  std::vector<double> host_wall_s;
  std::vector<double> setup_wall_s;
  std::vector<double> calibration_s;
  std::vector<Execution> execs;
  // Rows of the layer-cost table: layer, count, probe ns/op.
  struct CostRow {
    std::string layer;
    std::string count_name;
    double count;
    double ns_per_op;
  };
  std::vector<CostRow> cost_rows;
  double run_s = 0.0;  // untraced host seconds the cost rows are set against
};

std::string MachineJson(const Options& o) {
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + JsonString(o.cpu_model) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"pdblb_trace\": " + (sim::kTraceCompiledIn ? "true" : "false") +
         ", \"commit\": " + JsonString(o.commit) + "}";
}

void AddCostRows(const Metrics& m, Output& out) {
  auto row = [&](const char* layer, const char* count, const char* cost) {
    out.cost_rows.push_back(
        Output::CostRow{layer, count, m.at(count), m.at(cost)});
  };
  row("simkern", "simkern.dispatches", "simkern.probe_ns_per_event");
  row("iosim", "iosim.logical_reads", "iosim.probe_ns_per_page");
  row("bufmgr", "bufmgr.fetches", "bufmgr.probe_ns_per_fetch");
  row("lockmgr", "lockmgr.locks_granted", "lockmgr.probe_ns_per_lock");
  row("netsim", "netsim.packets", "netsim.probe_ns_per_packet");
  row("core", "engine.joins_completed", "core.probe_ns_per_plan");
}

// --- the two modes -----------------------------------------------------------------

/// End-to-end metrics: untraced repetitions for about `seconds`, cycling
/// through the replications, each set against the calibration loop.  Every
/// repetition also times the construction of its Clusters (set-up) and
/// measures its own peak resident memory.
Output MeasureEndToEnd(const Options& o, const Workload& w, SpanLog& spans) {
  Output out;
  Calibrator calibrator(w.jobs);
  std::vector<double> host_s;
  std::vector<double> setup_s;
  std::vector<double> rss;
  std::mutex spans_mu;
  const double start = NowSeconds();
  for (size_t rep = 0; w.KeepGoing(rep, start, o.seconds); ++rep) {
    const size_t k = w.ReplicationOf(rep);
    ResetPeakRss();
    const int id = spans.Begin("repetition " + std::to_string(rep));
    double wall = 0.0;
    double setup = 0.0;
    if (w.grid) {
      // Sweep::Run constructs its Clusters inside the timed phase; set-up
      // is timed on its own, constructing every point once.
      const int setup_id = spans.Begin("setup", id);
      setup = SetupSeconds(w.replications[k], spans, setup_id);
      spans.End(setup_id);
      GridRun g = RunGrid(w, k, spans, id);
      wall = g.host_s;
      out.execs.insert(out.execs.end(), g.execs.begin(), g.execs.end());
    } else {
      PointRun r =
          RunPoint(w.replications[k][0], k, false, spans, spans_mu, id);
      wall = r.run_s;
      setup = r.setup_s;
      out.execs.push_back(r.exec);
    }
    spans.End(id);
    rss.push_back(PeakRssMb());
    const double factor = calibrator.Factor();
    out.host_wall_s.push_back(wall);
    out.setup_wall_s.push_back(setup);
    host_s.push_back(wall * factor);
    setup_s.push_back(setup * factor);
  }
  out.calibration_s = calibrator.samples();

  out.metrics["host_s"] = Median(host_s);
  out.metrics["setup_s"] = Median(setup_s);
  out.metrics["peak_rss_mb"] = Median(rss);
  return out;
}

/// Per-layer metrics: untraced and traced repetitions (allocation counting
/// on in the traced ones), then the probes.
/// Host costs here are raw, per kernel dispatch, so repetitions of
/// different replications compare.
Output MeasureLayers(const Options& o, const Workload& w, SpanLog& spans) {
  Output out;
  Metrics& m = out.metrics;
  std::mutex spans_mu;
  // Untraced and traced repetitions of each replication run back to back,
  // so the tracing overhead compares runs made at nearly the same time.
  // Half of the budget keeps a traced run about as long as an untraced one.
  std::vector<double> host_ns;  // timed phase / dispatches
  std::vector<double> run_ns;   // summed point Run times / dispatches
  std::vector<double> traced_run_ns;
  std::vector<double> worker_util;
  std::vector<double> point_s;
  LayerCounts counts;  // replication 0, traced
  uint64_t allocs = 0;
  const double start = NowSeconds();
  for (size_t rep = 0; w.KeepGoing(rep, start, o.seconds / 2.0); ++rep) {
    const size_t k = w.ReplicationOf(rep);
    // Untraced: host ns per dispatch, and the runner's per-point times.
    int id = spans.Begin("repetition " + std::to_string(rep));
    if (w.grid) {
      GridRun g = RunGrid(w, k, spans, id);
      out.host_wall_s.push_back(g.host_s);
      out.execs.insert(out.execs.end(), g.execs.begin(), g.execs.end());
      host_ns.push_back(g.host_s * 1e9 / g.dispatches);
      run_ns.push_back(Sum(g.point_run_s) * 1e9 / g.dispatches);
      worker_util.push_back(Sum(g.point_run_s) / (w.jobs * g.host_s));
      point_s.insert(point_s.end(), g.point_run_s.begin(),
                     g.point_run_s.end());
    } else {
      PointRun r =
          RunPoint(w.replications[k][0], k, false, spans, spans_mu, id);
      out.host_wall_s.push_back(r.run_s);
      out.execs.push_back(r.exec);
      host_ns.push_back(r.run_s * 1e9 /
                        static_cast<double>(r.counts.dispatches()));
      run_ns.push_back(host_ns.back());
    }
    spans.End(id);

    // Traced: the replication's points on the benchmark's own pool, heap
    // allocations counted.
    id = spans.Begin("traced repetition " + std::to_string(rep));
    SetAllocCounting(true);
    const uint64_t allocs0 = AllocCount();
    const std::vector<PointRun> runs =
        RunPointsParallel(w, k, /*traced=*/true, spans, id);
    const uint64_t rep_allocs = AllocCount() - allocs0;
    SetAllocCounting(false);
    spans.End(id);
    LayerCounts rep_counts;
    double run_sum = 0.0;
    for (const PointRun& r : runs) {
      run_sum += r.run_s;
      rep_counts.Add(r.counts);
      out.execs.push_back(r.exec);
    }
    traced_run_ns.push_back(run_sum * 1e9 /
                            static_cast<double>(rep_counts.dispatches()));
    if (rep == 0) {
      counts = rep_counts;
      // One point runs alone: count Run only.  A grid pass overlaps
      // construction and Run across threads, so it counts both.
      allocs = w.grid ? rep_allocs : runs[0].allocs;
    }
  }
  counts.ToMetrics(m);
  const double dispatches = static_cast<double>(counts.dispatches());
  m["simkern.dispatches"] = dispatches;
  m["simkern.ns_per_event"] = Median(host_ns);
  m["simkern.allocs_per_event"] = static_cast<double>(allocs) / dispatches;
  m["simkern.trace_overhead"] = Median(traced_run_ns) / Median(run_ns);

  if (w.grid) {
    std::sort(point_s.begin(), point_s.end());
    m["runner.worker_util"] = Median(worker_util);
    m["runner.point_host_s_p50"] = Median(point_s);
    m["runner.point_host_s_max"] = point_s.back();
    m["runner.point_samples"] = static_cast<double>(point_s.size());
  } else {
    // No runner on the single-point workloads.
    m["runner.worker_util"] = 0.0;
    m["runner.point_host_s_p50"] = 0.0;
    m["runner.point_host_s_max"] = 0.0;
    m["runner.point_samples"] = 0.0;
  }

  // Probes, sized from the workload's largest point.
  const int probes = spans.Begin("probes");
  const runner::SweepPoint* largest = &w.replications[0][0];
  for (const runner::SweepPoint& p : w.replications[0]) {
    if (p.config.num_pes > largest->config.num_pes) largest = &p;
  }
  const Metrics probe_metrics =
      RunProbes(largest->config, w.mix, w.plan_strategies, spans, probes);
  spans.End(probes);
  m.insert(probe_metrics.begin(), probe_metrics.end());

  // Each layer's count x probe cost, set against replication 0's untraced
  // point run time (estimated from its dispatches).
  out.run_s = dispatches * Median(run_ns) * 1e-9;
  AddCostRows(m, out);
  for (const Output::CostRow& r : out.cost_rows) {
    m[r.layer + ".est_host_share"] =
        r.count * r.ns_per_op * 1e-9 / out.run_s;
  }
  m.erase("simkern.dispatches");
  return out;
}

void Print(const Options& o, const Output& out) {
  std::printf("pdblb_perfbench %s seed=%llu trace=%d horizon=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, o.tiny ? "tiny" : "standard");
  std::printf("raw host wall median %.4f s over %zu repetitions",
              Median(out.host_wall_s), out.host_wall_s.size());
  if (!out.calibration_s.empty()) {
    std::printf("; calibration loop median %.4f s (reference %.4f s)",
                Median(out.calibration_s), kReferenceCalibrationS);
  }
  std::printf("\n");
  if (!out.cost_rows.empty()) {
    std::printf("%-8s %-24s %14s %12s %10s %8s\n", "layer", "count", "n",
                "probe ns/op", "est s", "share");
    for (const Output::CostRow& r : out.cost_rows) {
      const double est = r.count * r.ns_per_op * 1e-9;
      std::printf("%-8s %-24s %14.0f %12.1f %10.4f %7.1f%%\n",
                  r.layer.c_str(), r.count_name.c_str(), r.count,
                  r.ns_per_op, est, 100.0 * est / out.run_s);
    }
    std::printf("untraced run time %.4f s (shares overlap: every layer's "
                "work also dispatches kernel events)\n",
                out.run_s);
  }
  std::string json = "{\"workload\": " + JsonString(o.workload) +
                     ", \"seed\": " + std::to_string(o.seed) +
                     ", \"trace\": " + (o.trace ? "1" : "0") +
                     ", \"horizon\": " +
                     JsonString(o.tiny ? "tiny" : "standard") +
                     ", \"machine\": " + MachineJson(o) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    json += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  json += "}, \"samples\": {\"host_wall_s\": " + JsonNumbers(out.host_wall_s) +
          ", \"setup_wall_s\": " + JsonNumbers(out.setup_wall_s) +
          ", \"calibration_s\": " + JsonNumbers(out.calibration_s) +
          "}, \"executions\": [";
  for (size_t i = 0; i < out.execs.size(); ++i) {
    const Execution& e = out.execs[i];
    json += std::string(i == 0 ? "" : ", ") +
            "{\"replication\": " + std::to_string(e.replication) +
            ", \"point\": " + JsonString(e.point) + ", \"traced\": " +
            (e.traced ? "true" : "false") + ", \"digest\": " +
            JsonString(e.digest) + "}";
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
}

bool WriteSpans(const Options& o, const SpanLog& spans) {
  std::FILE* f = std::fopen(o.spans_path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json =
      "{\"machine\": " + MachineJson(o) + ", \"spans\": " + spans.ToJson() +
      "}\n";
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

// --- SpanLog -------------------------------------------------------------------------

int SpanLog::Add(std::string name, int parent, double start_s, double end_s) {
  spans_.push_back(Span{std::move(name), parent, start_s, end_s});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::Begin(std::string name, int parent) {
  const double now = NowSeconds();
  return Add(std::move(name), parent, now, now);
}

void SpanLog::End(int id) { spans_[static_cast<size_t>(id)].end_s = NowSeconds(); }

std::string SpanLog::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += std::string(i == 0 ? "" : ",\n  ") + "{\"id\": " +
           std::to_string(i) + ", \"parent\": " + std::to_string(s.parent) +
           ", \"name\": " + JsonString(s.name) +
           ", \"start_s\": " + JsonNumber(s.start_s) +
           ", \"end_s\": " + JsonNumber(s.end_s) + "}";
  }
  return out + "]";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  NowSeconds();  // start the clock
  Options o;
  Workload w;
  if (!ParseArgs(argc, argv, &o) || !MakeWorkload(o, &w)) {
    std::fprintf(stderr,
                 "usage: %s --workload=join_cpu80|mixed_oltp80|fig5_grid "
                 "[--seed=N] [--seconds=S] [--trace=0|1] "
                 "[--horizon=standard|tiny] [--perturb] [--spans=PATH] "
                 "[--cpu-model=TEXT] [--commit=TEXT]\n",
                 argv[0]);
    return 2;
  }
  try {
    SpanLog spans;
    const Output out =
        o.trace ? MeasureLayers(o, w, spans) : MeasureEndToEnd(o, w, spans);
    if (!o.spans_path.empty() && !WriteSpans(o, spans)) {
      std::fprintf(stderr, "cannot write %s\n", o.spans_path.c_str());
      return 1;
    }
    Print(o, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdblb_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
