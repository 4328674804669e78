// Copyright 2026 the pdblb authors. MIT license.

#include "engine/cluster.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "engine/elastic.h"
#include "engine/faults.h"
#include "engine/join_executor.h"
#include "engine/oltp_executor.h"
#include "engine/scan_executor.h"
#include "workload/arrivals.h"

namespace pdblb {

sim::Task<> ExecuteQuery(Cluster& c, QueryClass cls, PeId home,
                         QueryAttempt* qa) {
  switch (cls) {
    case QueryClass::kJoin:
      return ExecuteJoinQuery(c, 2, qa);
    case QueryClass::kScan:
      return ExecuteScanQuery(c, qa);
    case QueryClass::kUpdate:
      return ExecuteUpdateQuery(c, qa);
    case QueryClass::kMultiwayJoin:
      return ExecuteJoinQuery(c, c.config().multiway_join.ways, qa);
    case QueryClass::kOltp:
      break;
  }
  return ExecuteOltpTransaction(c, home, qa);
}

Cluster::Cluster(const SystemConfig& config)
    : config_(config), root_rng_(config.seed),
      workload_rng_(root_rng_.Fork(1)), arrival_rng_(root_rng_.Fork(2)) {
  Status st = config_.Validate();
  if (!st.ok()) throw std::invalid_argument(st.ToString());

  if (config_.trace.enabled) {
    tracer_ = std::make_unique<sim::Tracer>();
    sched_.AttachTracer(tracer_.get());
  }

  if (config_.architecture == Architecture::kSharedDisk) {
    // The global spindle pool of the storage subsystem: every PE's facade
    // shares these disks.  The pool's own CPU/controller are never used —
    // all I/O goes through the per-PE storage adapters.
    // Origin 0xFFF marks the shared storage subsystem (no owning PE).
    storage_cpu_ = std::make_unique<sim::Resource>(
        sched_, 1, "storage.cpu",
        sim::TraceTag(sim::TraceSubsystem::kCpu, 0xFFF));
    DiskConfig pool = config_.disk;
    pool.disks_per_pe = config_.disk.disks_per_pe * config_.num_pes;
    shared_disks_ = std::make_unique<DiskArray>(
        sched_, pool, config_.costs, config_.mips_per_pe, *storage_cpu_,
        "storage", sim::TraceTag(sim::TraceSubsystem::kDisk, 0xFFF));
  }

  pes_.reserve(config_.num_pes);
  for (PeId id = 0; id < config_.num_pes; ++id) {
    pes_.push_back(std::make_unique<ProcessingElement>(sched_, config_, id,
                                                       shared_disks_.get()));
  }
  db_ = std::make_unique<Database>(config_);
  std::vector<sim::Resource*> pe_cpus;
  pe_cpus.reserve(pes_.size());
  for (auto& pe : pes_) pe_cpus.push_back(&pe->cpu());
  net_ = std::make_unique<Network>(sched_, config_.network, config_.costs,
                                   config_.mips_per_pe, std::move(pe_cpus));
  control_ = std::make_unique<ControlNode>(config_.num_pes,
                                           config_.adaptive_selection_feedback);
  control_->ConfigureOverload(config_.overload);
  cost_model_ = std::make_unique<CostModel>(config_);
  policy_ = LoadBalancingPolicy::Create(config_.strategy);

  std::vector<LockManager*> lock_managers;
  for (auto& pe : pes_) lock_managers.push_back(&pe->locks());
  deadlock_detector_ =
      std::make_unique<DeadlockDetector>(sched_, std::move(lock_managers));
  faults_ = std::make_unique<FaultInjector>(*this);
  if (config_.faults.ElasticEnabled()) {
    elastic_ = std::make_unique<ElasticityManager>(*this);
    // Elastic spares (addpe targets) start outside the membership: no
    // fragment homes (catalog/database.cc), not in the planning views, no
    // load reports until their addpe event fires.
    for (PeId pe : db_->spare_nodes()) {
      pes_[pe]->set_member(false);
      control_->MarkDown(pe);
    }
  }

  // Transient disk errors: arm every PE's disk array with its own fork of
  // the dedicated disk-fault stream (root.Fork(4), then per PE).  Stream 3
  // is the PE crash timing; a new family keeps crash-only and disk-only
  // configurations from perturbing each other's draws.  Never armed
  // fault-free: the disk hot path then makes zero draws and extra awaits.
  if (config_.faults.DiskFaultsEnabled()) {
    sim::Rng disk_fault_root = sim::Rng(config_.seed).Fork(4);
    for (PeId id = 0; id < config_.num_pes; ++id) {
      pes_[id]->disks().ConfigureFaults(
          config_.faults.io_error_rate, config_.faults.io_retry_limit,
          config_.faults.io_retry_penalty_ms,
          disk_fault_root.Fork(static_cast<uint64_t>(id)));
    }
  }

  plan_request_.hash_table_pages = cost_model_->HashTablePages();
  plan_request_.psu_opt = cost_model_->PsuOpt();
  plan_request_.psu_noio = cost_model_->PsuNoIO();
  plan_request_.num_pes = config_.num_pes;
  plan_request_.scan_rate_tps = cost_model_->ScanProductionRateTps();
  plan_request_.join_rate_tps = cost_model_->JoinConsumptionRateTps();

  // Seed the control node with an optimistic initial view (idle CPUs, all
  // memory free) — exactly what a freshly booted system reports.  Spares
  // report nothing until their addpe event fires.
  for (PeId id = 0; id < config_.num_pes; ++id) {
    if (!pes_[id]->member()) continue;
    control_->Report(id, 0.0, pes_[id]->buffer().AvailablePages(), 0.0);
  }
}

Cluster::~Cluster() = default;

void Cluster::ReportAllPes(SimTime window_ms) {
  for (auto& pe : pes_) {
    double cpu_busy = pe->cpu().BusyIntegral();
    if (pe->failed() || !pe->member()) {
      // A down (or non-member: spare / draining) PE reports nothing (the
      // control node's alive view excludes it); keep the window bookkeeping
      // current so the first report after recovery or join covers only
      // activity since then.
      pe->last_cpu_busy_integral = cpu_busy;
      pe->last_disk_busy_integral = pe->disks().DataDiskBusyIntegral();
      continue;
    }
    double cpu_util =
        (cpu_busy - pe->last_cpu_busy_integral) /
        (window_ms * static_cast<double>(config_.cpus_per_pe));
    pe->last_cpu_busy_integral = cpu_busy;

    double disk_busy = pe->disks().DataDiskBusyIntegral();
    double disk_util =
        (disk_busy - pe->last_disk_busy_integral) /
        (window_ms * static_cast<double>(pe->disks().num_disks()));
    pe->last_disk_busy_integral = disk_busy;

    control_->Report(pe->id(), cpu_util, pe->buffer().AvailablePages(),
                     disk_util);
    metrics_.SampleUtilization(cpu_util, disk_util,
                               pe->buffer().MemoryUtilization(), sched_.Now());
    // The working-set estimate decays with time and does not generate
    // events; give queued joins a chance to proceed.
    pe->buffer().PumpMemoryQueue();
  }
  if (config_.overload.enabled) {
    // Feed the overload state machine once per round with the avg admission
    // queue depth over alive PEs (CPU pressure is read from the reports
    // above).  Pure bookkeeping: no events, no RNG draws.
    double queue = 0.0;
    int alive = 0;
    for (auto& pe : pes_) {
      if (pe->failed() || !pe->member()) continue;
      queue += static_cast<double>(pe->admission().queue_length());
      ++alive;
    }
    control_->NoteLoadRound(alive == 0 ? 0.0
                                       : queue / static_cast<double>(alive));
  }
}

sim::Task<> Cluster::ControlReportLoop() {
  const double interval = config_.control_report_interval_ms;
  while (true) {
    co_await sched_.Delay(interval);
    ReportAllPes(interval);
  }
}

void Cluster::SpawnBackground() {
  sched_.Spawn(ControlReportLoop());
  sched_.Spawn(deadlock_detector_->Run());
}

Status Cluster::SetTrace(Trace trace) {
  for (const TraceEvent& e : trace.events()) {
    if (e.cls != QueryClass::kOltp) continue;
    // Range first: Database::oltp_relation only asserts it.
    const bool in_range = e.oltp_node >= 0 && e.oltp_node < num_pes();
    if (in_range && db_->oltp_relation(e.oltp_node) != nullptr) continue;
    char event[64];
    std::snprintf(event, sizeof(event), "trace event at %.3f ms: oltp:%d ",
                  e.arrival_ms, e.oltp_node);
    return Status::InvalidArgument(
        event + std::string(in_range ? "names a PE without an OLTP relation"
                                     : "names no PE of the cluster"));
  }
  trace_ = std::move(trace);
  return Status::OK();
}

sim::Task<> Cluster::Submit(QueryClass cls, PeId home) {
  if (!config_.faults.Enabled()) return ExecuteQuery(*this, cls, home, nullptr);
  return faults_->Supervise(cls, home);
}

void Cluster::SpawnOpenWorkload() {
  if (trace_.has_value()) {
    // Trace-driven mode: one dispatcher replaces all Poisson sources.
    sched_.Spawn(ReplayTrace(sched_, std::move(*trace_),
                             [this](const TraceEvent& event) {
                               sched_.Spawn(Submit(event.cls, event.oltp_node));
                             }));
    trace_.reset();
    return;
  }
  // One Poisson source per query class, and per node for OLTP, each on its
  // own arrival stream.
  for (size_t i = 0; i < kNumQueryClasses; ++i) {
    const double rate = kQueryClasses[i].arrivals_per_second(config_);
    if (rate <= 0.0) continue;
    const auto cls = static_cast<QueryClass>(i);
    auto source = [&](PeId home) {
      sched_.Spawn(PoissonArrivals(
          sched_,
          arrival_rng_.Fork(kQueryClasses[i].stream +
                            static_cast<uint64_t>(home)),
          rate, [this, cls, home](int64_t) {
            sched_.Spawn(Submit(cls, home));
          }));
    };
    if (cls == QueryClass::kOltp) {
      for (PeId node : db_->oltp_nodes()) source(node);
    } else {
      source(0);
    }
  }
}

void Cluster::ResetStatistics() {
  for (auto& pe : pes_) pe->ResetStats();
  net_->ResetStats();
}

MetricsReport Cluster::Collect(SimTime measure_start,
                               SimTime measure_end) const {
  MetricsReport r = metrics_.counters();
  double seconds = MsToSeconds(measure_end - measure_start);
  r.measurement_seconds = seconds;

  const QueryClassStats& join = metrics_.queries(QueryClass::kJoin);
  r.join_rt_ms = join.response_ms.mean();
  r.join_rt_max_ms = join.response_ms.max();
  r.joins_completed = join.response_ms.count();
  r.join_throughput_qps =
      seconds > 0 ? static_cast<double>(r.joins_completed) / seconds : 0.0;
  r.avg_degree = join.degree.mean();
  if (r.joins_completed > 0) {
    r.temp_pages_written_per_join =
        static_cast<double>(join.temp_pages_written) /
        static_cast<double>(r.joins_completed);
    r.temp_pages_read_per_join = static_cast<double>(join.temp_pages_read) /
                                 static_cast<double>(r.joins_completed);
  }

  const QueryClassStats& oltp = metrics_.queries(QueryClass::kOltp);
  r.oltp_rt_ms = oltp.response_ms.mean();
  r.oltp_completed = oltp.response_ms.count();
  r.oltp_throughput_tps =
      seconds > 0 ? static_cast<double>(r.oltp_completed) / seconds : 0.0;
  r.oltp_aborts = oltp.aborts;

  const QueryClassStats& scan = metrics_.queries(QueryClass::kScan);
  r.scan_rt_ms = scan.response_ms.mean();
  r.scans_completed = scan.response_ms.count();
  const QueryClassStats& update = metrics_.queries(QueryClass::kUpdate);
  r.update_rt_ms = update.response_ms.mean();
  r.updates_completed = update.response_ms.count();
  r.update_aborts = update.aborts;
  const QueryClassStats& multiway = metrics_.queries(QueryClass::kMultiwayJoin);
  r.multiway_rt_ms = multiway.response_ms.mean();
  r.multiway_completed = multiway.response_ms.count();

  r.cpu_utilization = metrics_.cpu_util().mean();
  r.disk_utilization = metrics_.disk_util().mean();
  r.memory_utilization = metrics_.mem_util().mean();
  r.avg_memory_queue_wait_ms = metrics_.memory_queue_wait().mean();

  for (const auto& pe : pes_) {
    r.lock_waits += pe->locks().lock_waits();
    r.deadlock_aborts += pe->locks().deadlock_aborts();
    r.buffer_hits += pe->buffer().buffer_hits();
    r.buffer_misses += pe->buffer().buffer_misses();
    r.buffer_evictions += pe->buffer().evictions();
    r.buffer_writebacks += pe->buffer().dirty_writebacks();
  }
  if (r.buffer_hits + r.buffer_misses > 0) {
    r.buffer_hit_ratio =
        static_cast<double>(r.buffer_hits) /
        static_cast<double>(r.buffer_hits + r.buffer_misses);
  }

  for (const auto& pe : pes_) {
    r.io_errors += pe->disks().io_errors();
    r.io_retries += pe->disks().io_retries();
    r.slow_disk_ms += pe->disks().slow_disk_extra_ms();
  }
  return r;
}

MetricsReport Cluster::Run() {
  if (ran_) {
    throw std::logic_error(
        "Cluster::Run() called twice on the same instance; a Cluster is "
        "single-shot (scheduler time, statistics and RNG streams are "
        "consumed) — construct a fresh Cluster for every run");
  }
  ran_ = true;

  auto wall_start = std::chrono::steady_clock::now();
  SpawnBackground();
  if (config_.faults.FailuresEnabled()) faults_->SpawnFaultProcesses();
  SimTime measure_start = 0.0;
  SimTime measure_end = 0.0;

  if (config_.single_user_mode) {
    metrics_.SetWarmupEnd(0.0);
    bool done = false;
    sched_.Spawn(ClosedLoop(
        config_.single_user_queries,
        [this](int64_t) { return Submit(QueryClass::kJoin, 0); }, &done));
    while (!done && sched_.pending_events() > 0) {
      sched_.RunUntil(sched_.Now() + 60000.0);
    }
    measure_end = sched_.Now();
  } else {
    SpawnOpenWorkload();
    metrics_.SetWarmupEnd(config_.warmup_ms);
    sched_.RunUntil(config_.warmup_ms);
    ResetStatistics();
    measure_start = config_.warmup_ms;
    measure_end = config_.warmup_ms + config_.measurement_ms;
    sched_.RunUntil(measure_end);
  }

  MetricsReport report = Collect(measure_start, measure_end);
  // Nothing after the window is reported: unwind the work still in flight
  // instead of simulating it, so every slot, reservation and lock returns.
  sched_.CancelAll();

  report.kernel_events = sched_.events_processed();
  report.kernel_handoffs = sched_.inline_resumes();
  if (tracer_ != nullptr) {
    // Post-run attribution: fold the event trace into per-subsystem
    // simulated-time and event-count breakdowns (exact even when the ring
    // wrapped — the fold is accumulated as records are written).
    report.trace_enabled = true;
    const auto& breakdown = tracer_->breakdown();
    for (size_t s = 0; s < sim::kNumTraceSubsystems; ++s) {
      report.trace_subsystem_events[s] = breakdown[s].events;
      report.trace_subsystem_time_ms[s] = breakdown[s].sim_time_ms;
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.kernel_events_per_sec =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.kernel_events) / report.wall_seconds
          : 0.0;
  return report;
}

}  // namespace pdblb
