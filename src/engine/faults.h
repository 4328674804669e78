// Copyright 2026 the pdblb authors. MIT license.
//
// Fault injection, query deadlines and PE failure/recovery.
//
// A FaultInjector owns the cluster's failure schedule (scripted events
// and/or a seeded Poisson crash/repair process per PE), applies crashes and
// recoveries (cancelling resident query attempts, releasing their resources
// through cancellation-aware awaiters, flipping the control node's alive
// view so strategies re-plan around dead PEs), and supervises query
// execution: each query runs as a sequence of *attempts*, where an attempt
// that touches a failed PE is cancelled mid-flight (or fails fast at
// placement) and retried with capped exponential backoff, and an attempt
// chain that exceeds the query's deadline is cancelled with
// kDeadlineExceeded.
//
// Beyond whole-PE crashes, the injector drives the gray-failure domains:
// scripted slow-disk windows and transient I/O errors live in
// iosim/disk.{h,cc} (latency-only, absorbed by the driver), link delay
// multipliers live in netsim/network.{h,cc}, and scripted partitions are
// enforced here — applying a partition cancels resident attempts spanning
// the cut link and AddParticipant fails fast when a new PE is partitioned
// from any PE the attempt already uses, both feeding the kUnavailable
// retry path exactly like a crash.  All of it flows through the same
// calendar and RNG-fork discipline, so --jobs stays bit-identical.
//
// Determinism: all fault timing draws come from a dedicated RNG stream
// (root.Fork(3), further forked per PE), deadline assignment and backoff
// jitter come from the workload stream in arrival order, and crashes /
// cancellations are ordinary calendar events — so every outcome is a pure
// function of (seed, config), identical across --jobs and reruns.
// When SystemConfig::faults is disabled the supervisor is bypassed entirely
// and the event/RNG streams are byte-identical to a fault-free build.

#ifndef PDBLB_ENGINE_FAULTS_H_
#define PDBLB_ENGINE_FAULTS_H_

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/units.h"
#include "simkern/latch.h"
#include "simkern/ring.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

class Cluster;
class FaultInjector;

/// Per-attempt bookkeeping shared between the supervisor and the query
/// (engine/query.h).  Lives in the supervisor's frame, so it survives
/// cancellation of the attempt frame itself.  A query registers every PE it
/// touches *before* doing work there; registration fails fast (returns
/// false, sets outcome = kUnavailable) when the PE is already down, and the
/// recorded set is what ApplyCrash consults to find the attempts a crash
/// kills.
struct QueryAttempt {
  FaultInjector* injector = nullptr;
  sim::Latch* done = nullptr;
  uint64_t work_id = 0;
  StatusCode outcome = StatusCode::kOk;
  std::vector<PeId> participants;
  /// Set by the lifecycle when the attempt ran on an overload-capped plan
  /// (JoinPlan::degraded); the supervisor counts it on completion.
  bool degraded_plan = false;

  /// Records that the attempt is about to use `pe`.  Returns false (and
  /// marks the attempt kUnavailable) if the PE is down, or if the network
  /// path between `pe` and any already-registered participant is
  /// partitioned — the query must co_return immediately; its RAII guards
  /// release whatever it holds.
  bool AddParticipant(PeId pe);
  bool AddParticipants(const std::vector<PeId>& pes);
  bool Touches(PeId pe) const;
};

/// RAII release of a transaction's locks at a set of PEs.  The normal path
/// calls ReleaseNow() where the transaction ends; cancellation mid-
/// transaction releases from the destructor so no lock entry leaks.  The PE
/// set lives inline for up to 8 PEs (an OLTP transaction names one), and
/// nothing is recorded for txn 0, which takes no locks.
class TxnLocksGuard {
 public:
  TxnLocksGuard(Cluster* cluster, TxnId txn) : cluster_(cluster), txn_(txn) {}
  ~TxnLocksGuard();
  TxnLocksGuard(const TxnLocksGuard&) = delete;
  TxnLocksGuard& operator=(const TxnLocksGuard&) = delete;
  void AddPe(PeId pe);
  /// Releases the transaction's locks at every added PE, in the order they
  /// were added, and disarms the guard.
  void ReleaseNow();

 private:
  Cluster* cluster_;
  TxnId txn_;
  sim::RingBuffer<PeId, 8> pes_;  ///< insertion order = release order
  bool armed_ = true;
};

/// The cluster's fault plan: crash/recovery application, random fault
/// processes, and the per-query supervisor (retry + deadline).
class FaultInjector {
 public:
  explicit FaultInjector(Cluster& cluster);

  /// Spawns the scripted fault events and (when crash_rate > 0) one random
  /// crash/repair loop per PE.  Call once, before the workload starts.
  void SpawnFaultProcesses();

  /// Runs one query of class `cls` (`home`: an OLTP transaction's home PE)
  /// as a supervised attempt chain: deadline assignment, fail-fast /
  /// cancellation on PE failure, capped exponential backoff between
  /// attempts, and metrics accounting (timed out / retried / failed /
  /// degraded).  Each attempt is a fresh ExecuteQuery (engine/cluster.h).
  sim::Task<> Supervise(QueryClass cls, PeId home);

  /// True when `pe` is currently down (executors fail fast against it).
  bool PeFailed(PeId pe) const;

  /// True when the link between `pe` and any PE in `others` is partitioned
  /// (cheap constant-false while no partition was ever applied).
  bool LinkBlocked(PeId pe, const std::vector<PeId>& others) const;

  // Attempt registry (RunAttempt's registration RAII).
  void Register(QueryAttempt* attempt) { active_.push_back(attempt); }
  void Unregister(QueryAttempt* attempt);

  sim::Scheduler& sched();

 private:
  sim::Task<> ApplyAt(FaultEvent event);
  sim::Task<> RandomFaultLoop(PeId pe);
  void ApplyCrash(PeId pe);
  void ApplyRecovery(PeId pe);
  void ApplyPartition(PeId a, PeId b);
  void ApplyHeal(PeId a, PeId b);

  Cluster& cluster_;
  std::vector<QueryAttempt*> active_;
  sim::Rng fault_rng_;
};

}  // namespace pdblb

#endif  // PDBLB_ENGINE_FAULTS_H_
