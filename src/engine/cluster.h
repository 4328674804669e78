// Copyright 2026 the pdblb authors. MIT license.
//
// Cluster: the assembled Shared Nothing database system.  Owns the event
// scheduler, all PEs, the network, the control node, the deadlock detector,
// the load-balancing policy and the measurement protocol.  This is the main
// entry point of the public API:
//
//   SystemConfig cfg;                       // paper defaults
//   cfg.num_pes = 80;
//   cfg.strategy = strategies::OptIOCpu();
//   Cluster cluster(cfg);
//   MetricsReport r = cluster.Run();
//   std::cout << r.join_rt_ms << "\n";

#ifndef PDBLB_ENGINE_CLUSTER_H_
#define PDBLB_ENGINE_CLUSTER_H_

#include <memory>
#include <optional>
#include <vector>

#include "catalog/database.h"
#include "catalog/ownership.h"
#include "common/config.h"
#include "common/status.h"
#include "core/control_node.h"
#include "core/cost_model.h"
#include "core/strategies.h"
#include "engine/metrics.h"
#include "engine/pe.h"
#include "lockmgr/deadlock_detector.h"
#include "netsim/network.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/tracer.h"
#include "workload/trace.h"

namespace pdblb {

class ElasticityManager;
class FaultInjector;
struct QueryAttempt;

class Cluster {
 public:
  /// Throws std::invalid_argument, with SystemConfig::Validate()'s message,
  /// when the configuration is invalid.
  explicit Cluster(const SystemConfig& config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- component access ----------------------------------------------------
  const SystemConfig& config() const { return config_; }
  sim::Scheduler& sched() { return sched_; }
  Network& net() { return *net_; }
  ControlNode& control() { return *control_; }
  const Database& db() const { return *db_; }
  const CostModel& cost_model() const { return *cost_model_; }
  const LoadBalancingPolicy& policy() const { return policy_; }
  MetricsCollector& metrics() { return metrics_; }
  ProcessingElement& pe(PeId id) { return *pes_[id]; }
  int num_pes() const { return config_.num_pes; }

  /// The event tracer when config.trace.enabled, nullptr otherwise.  Valid
  /// for the Cluster's lifetime — read the retained trace (or dump it via
  /// Tracer::WriteCsv) after Run().
  const sim::Tracer* tracer() const { return tracer_.get(); }

  /// Precomputed planning inputs for the configured join class.
  const JoinPlanRequest& plan_request() const { return plan_request_; }

  /// RNG stream used for workload decisions (placement, keys).
  sim::Rng& workload_rng() { return workload_rng_; }

  /// The fault-injection subsystem (engine/faults.h).  Always constructed;
  /// inert unless SystemConfig::faults enables failures or timeouts.
  FaultInjector& faults() { return *faults_; }

  /// The one writer of a PE's up/down state: sets its failed and member
  /// flags, and keeps the control node's alive view equal to
  /// member && !failed.  A PE that comes up (recovered, or a spare joining)
  /// boots idle with a cold buffer, and its report says so at once, so plans
  /// can use it without waiting for a report round.
  void SetPeState(PeId pe, bool failed, bool member);

  // --- elastic membership (engine/elastic.h) ------------------------------

  /// True when the fault spec schedules addpe/drainpe events.  Constant for
  /// the run.
  bool elastic_enabled() const { return elastic_ != nullptr; }
  /// The membership/migration manager; only valid when elastic_enabled().
  ElasticityManager& elastic() { return *elastic_; }
  /// The fragment home -> owner map (identity until a migration commits).
  OwnershipMap& ownership() { return ownership_; }
  /// Current owner of the fragment of `relation_id` homed at `home`.
  PeId OwnerOf(int32_t relation_id, PeId home) const {
    return ownership_.Owner(relation_id, home);
  }
  /// Routes a drawn coordinator PE to the nearest member (linear probe
  /// upward, wrapping).  Identity when elastic resize is not configured —
  /// the draw itself is always made, so the workload RNG stream is
  /// unchanged between elastic and resize-free runs.
  PeId MemberPe(PeId drawn) const {
    if (elastic_ == nullptr) return drawn;
    for (int i = 0; i < config_.num_pes; ++i) {
      PeId pe = (drawn + i) % config_.num_pes;
      if (pes_[pe]->member()) return pe;
    }
    return drawn;  // no member at all: let the attempt fail fast
  }

  /// Fresh relation-id namespace for a join's temporary partitions.
  int32_t NextTempRelationId() { return next_temp_rel_id_--; }
  TxnId NextTxnId() { return next_txn_id_++; }

  // --- measurement protocol -------------------------------------------------

  /// Replaces the open Poisson sources with a fixed arrival trace (paper
  /// Section 4: trace-driven workloads [18]).  The trace is replayed from
  /// t = 0; per-class query parameters still come from the SystemConfig,
  /// while the arrival rates are ignored.  Rejects a trace with an OLTP
  /// event at a PE that holds no OLTP relation (oltp.enabled and
  /// oltp.placement build them) with InvalidArgument.  Call before Run().
  Status SetTrace(Trace trace);

  /// Runs the full experiment (warm-up, measurement, unwind) and returns the
  /// collected metrics.  The report is collected at the end of the
  /// measurement window (after the last query in single-user mode).  The
  /// work still in flight there is then cancelled (Scheduler::CancelAll),
  /// not simulated: simulated time ends with the window, and every slot,
  /// reservation and lock is returned.  A Cluster is single-shot: the
  /// scheduler, statistics and RNG streams are consumed by the run, so
  /// calling Run() a second time on the same instance throws
  /// std::logic_error — construct a fresh Cluster per experiment (the sweep
  /// runner does this per grid point).
  MetricsReport Run();

 private:
  void SpawnBackground();
  void SpawnOpenWorkload();
  /// One query of class `cls` (`home`: an OLTP transaction's home PE), as
  /// the task to spawn or await: under FaultInjector::Supervise when
  /// SystemConfig::faults is enabled, otherwise the executor itself (no
  /// supervisor frame, so fault-free runs keep their event and RNG
  /// streams).
  sim::Task<> Submit(QueryClass cls, PeId home);
  sim::Task<> ControlReportLoop();
  void ReportAllPes(SimTime window_ms);
  void ResetStatistics();
  MetricsReport Collect(SimTime measure_start, SimTime measure_end) const;

  SystemConfig config_;
  sim::Scheduler sched_;
  std::unique_ptr<sim::Tracer> tracer_;
  /// Shared Disk mode only: the global spindle pool and its (unused) CPU.
  std::unique_ptr<sim::Resource> storage_cpu_;
  std::unique_ptr<DiskArray> shared_disks_;
  std::vector<std::unique_ptr<ProcessingElement>> pes_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ControlNode> control_;
  std::unique_ptr<CostModel> cost_model_;
  LoadBalancingPolicy policy_;
  std::unique_ptr<DeadlockDetector> deadlock_detector_;
  std::unique_ptr<FaultInjector> faults_;
  /// Constructed only when the fault spec schedules addpe/drainpe.
  std::unique_ptr<ElasticityManager> elastic_;
  OwnershipMap ownership_;
  MetricsCollector metrics_;
  JoinPlanRequest plan_request_;

  sim::Rng workload_rng_;

  int32_t next_temp_rel_id_ = kTempRelationBase;
  TxnId next_txn_id_ = 1;
  bool ran_ = false;
  std::optional<Trace> trace_;
};

/// Starts one query of class `cls` in its executor: the one map from a
/// query class to the executor that runs it.  `home` is an OLTP
/// transaction's home PE, unused by the other classes; `qa` links the
/// query to fault supervision (engine/faults.h), nullptr when it runs
/// unsupervised.
sim::Task<> ExecuteQuery(Cluster& cluster, QueryClass cls, PeId home,
                         QueryAttempt* qa);

}  // namespace pdblb

#endif  // PDBLB_ENGINE_CLUSTER_H_
