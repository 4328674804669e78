// Copyright 2026 the pdblb authors. MIT license.
//
// The query lifecycle: the protocol every query class runs through at its
// coordinator (paper Section 4, the PAROP query processing system).  An
// executor writes only its class's work as a body — the join's stages, the
// scan and update fragment work, the debit-credit accesses — and RunQuery
// runs it between the coordinator's choice, the fail-fast registration of
// its PEs (engine/faults.h), shedding, admission under the multiprogramming
// level, and the completion record.  The transaction takes the shape the
// body's return type selects:
//  * read-only (sim::Task<>: joins, scans): BOT, a read transaction under
//    strict 2PL, the body, the read-only-optimized commit round, EOT;
//  * restartable (sim::Task<bool>, false for a deadlock victim: updates,
//    OLTP): a fresh transaction per attempt, BOT, the body, a two-phase
//    commit with forced log writes, EOT.  A victim releases its locks,
//    backs off 10 ms and restarts.
// A cancelled attempt (crash, partition, deadline) unwinds the body's frame
// first, then the transaction's locks, then the admission slot.

#ifndef PDBLB_ENGINE_QUERY_H_
#define PDBLB_ENGINE_QUERY_H_

#include <type_traits>
#include <vector>

#include "engine/cluster.h"
#include "engine/faults.h"
#include "engine/parop.h"
#include "simkern/resource.h"
#include "simkern/task.h"

namespace pdblb {

/// One query as its body sees it.
struct Query {
  Query() = default;
  explicit Query(PeId home) : coord(home) {}
  explicit Query(const Relation& rel) : target(&rel) {}

  /// A scan's or update's target relation; null for the other classes.
  const Relation* target = nullptr;
  /// The commit's participants: the owners of the target's fragments (the
  /// fragment homed at target->home_pes()[i] is served by sites[i]), or the
  /// PEs of every stage of a join.
  std::vector<PeId> sites;
  TxnId txn = 0;  ///< 0: a read-only query that takes no locks
  TxnLocksGuard* locks = nullptr;  ///< the body adds the PEs it locks at
  /// The supervised attempt, or nullptr.  A body that fails to register
  /// more PEs with it returns at once.
  QueryAttempt* attempt = nullptr;
  // A join's local joins' temporary pages, its first-stage degree, and
  // whether any stage ran on an overload-capped plan.
  int64_t temp_pages_written = 0;
  int64_t temp_pages_read = 0;
  int degree = 0;
  PeId coord = -1;  ///< an OLTP transaction's home; -1: RunQuery draws it
  bool degraded = false;
};

/// Holds the query's admission slot until the lifecycle's frame ends, on
/// completion or when a cancelled attempt unwinds.
class AdmissionGuard {
 public:
  AdmissionGuard(sim::Scheduler& sched, sim::Resource& slot)
      : sched_(sched), slot_(slot) {}
  ~AdmissionGuard() {
    if (!sched_.tearing_down()) slot_.Release();
  }
  AdmissionGuard(const AdmissionGuard&) = delete;
  AdmissionGuard& operator=(const AdmissionGuard&) = delete;

 private:
  sim::Scheduler& sched_;
  sim::Resource& slot_;
};

/// Runs one query of class `cls`; `body(Cluster&, Query&)` returns the task
/// of its work.  Spawn it, or run it under FaultInjector::Supervise (`qa`).
template <typename Body>
sim::Task<> RunQuery(Cluster& c, QueryClass cls, QueryAttempt* qa, Query q,
                     Body body) {
  using parop::UseCpu;
  sim::Scheduler& sched = c.sched();
  const CpuCosts& costs = c.config().costs;
  const QueryClassInfo& info = kQueryClasses[static_cast<size_t>(cls)];
  const SimTime t0 = sched.Now();

  if (q.coord < 0) {
    // Remapped to a member under elastic resize; the draw always happens,
    // so the RNG stream matches resize-free runs.
    q.coord = c.MemberPe(
        static_cast<PeId>(c.workload_rng().UniformInt(0, c.num_pes() - 1)));
  }
  if (q.target != nullptr) q.sites = parop::FragmentOwners(c, *q.target);
  q.attempt = qa;
  if (qa != nullptr &&
      (!qa->AddParticipant(q.coord) || !qa->AddParticipants(q.sites))) {
    co_return;
  }
  if (info.shed && c.control().ShouldShed()) {
    // Rejected before queueing for a slot, so a shed query holds nothing.
    // kResourceExhausted is final: the supervisor does not retry it.
    c.metrics().RecordQueryShed(sched.Now());
    if (qa != nullptr) qa->outcome = StatusCode::kResourceExhausted;
    co_return;
  }
  sim::Resource& slot = c.pe(q.coord).admission();
  co_await slot.Acquire();
  AdmissionGuard admission(sched, slot);

  int aborts = 0;
  if constexpr (std::is_same_v<decltype(body(c, q)), sim::Task<>>) {
    co_await UseCpu(c, q.coord, costs.initiate_txn);
    // Without strict 2PL a query reads lock-free (paper footnote 1).
    q.txn = c.config().cc_scheme == CcScheme::kTwoPhaseLocking ? c.NextTxnId()
                                                               : 0;
    TxnLocksGuard locks(&c, q.txn);
    q.locks = &locks;
    co_await body(c, q);
    if (qa != nullptr && qa->outcome != StatusCode::kOk) co_return;
    co_await parop::FanOut(c, q.coord, q.sites, parop::CommitRound);
    locks.ReleaseNow();
    co_await UseCpu(c, q.coord, costs.terminate_txn);
  } else {
    for (;; ++aborts) {
      q.txn = c.NextTxnId();
      TxnLocksGuard locks(&c, q.txn);
      q.locks = &locks;
      if (info.terminal) {
        co_await UseCpu(c, q.coord, costs.receive_message + costs.copy_message);
      }
      co_await UseCpu(c, q.coord, costs.initiate_txn);
      if (co_await body(c, q)) {
        // The coordinator forces its log while the participants prepare
        // (a local transaction's whole commit).
        co_await parop::FanOut(c, q.coord, q.sites,
                               parop::TwoPhaseCommitRounds,
                               c.pe(q.coord).disks().LogWrite());
        if (!info.terminal) locks.ReleaseNow();
        co_await UseCpu(c, q.coord, costs.terminate_txn);
        if (info.terminal) {
          co_await UseCpu(c, q.coord, costs.send_message + costs.copy_message);
          locks.ReleaseNow();
        }
        break;
      }
      locks.ReleaseNow();
      co_await sched.Delay(10.0);
    }
  }

  // The slot is released as the frame ends, after this bookkeeping: both
  // happen at the same simulated instant, and recording schedules nothing.
  c.metrics().RecordQuery(cls, sched.Now() - t0, aborts, q.degree,
                          q.temp_pages_written, q.temp_pages_read,
                          sched.Now());
  if (q.degraded) {
    // A supervised query leaves the count to its supervisor, which folds
    // in retry degradation.
    if (qa != nullptr) {
      qa->degraded_plan = true;
    } else {
      c.metrics().RecordQueryDegraded(sched.Now());
    }
  }
}

}  // namespace pdblb

#endif  // PDBLB_ENGINE_QUERY_H_
