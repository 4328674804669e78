// Copyright 2026 the pdblb authors. MIT license.

#include "engine/faults.h"

#include <algorithm>
#include <cmath>

#include "engine/cluster.h"
#include "engine/elastic.h"
#include "simkern/task_group.h"

namespace pdblb {

// ---------------------------------------------------------------- attempts

bool QueryAttempt::AddParticipant(PeId pe) {
  if (injector != nullptr &&
      (injector->PeFailed(pe) ||
       injector->LinkBlocked(pe, participants))) {
    outcome = StatusCode::kUnavailable;
    return false;
  }
  if (!Touches(pe)) participants.push_back(pe);
  return true;
}

bool QueryAttempt::AddParticipants(const std::vector<PeId>& pes) {
  for (PeId pe : pes) {
    if (!AddParticipant(pe)) return false;
  }
  return true;
}

bool QueryAttempt::Touches(PeId pe) const {
  return std::find(participants.begin(), participants.end(), pe) !=
         participants.end();
}

// ------------------------------------------------------------------ guards

TxnLocksGuard::~TxnLocksGuard() {
  if (armed_ && !cluster_->sched().tearing_down()) ReleaseNow();
}

void TxnLocksGuard::ReleaseNow() {
  for (size_t i = 0; i < pes_.size(); ++i) {
    cluster_->pe(pes_[i]).locks().ReleaseAll(txn_);
  }
  armed_ = false;
}

void TxnLocksGuard::AddPe(PeId pe) {
  if (txn_ == 0) return;
  for (size_t i = 0; i < pes_.size(); ++i) {
    if (pes_[i] == pe) return;
  }
  pes_.push_back(pe);
}

// ---------------------------------------------------------------- injector

namespace {

// Registers the attempt with the injector for the supervisor's wait on it,
// so that it also holds attempts that have ended but whose supervisor has
// not resumed yet: a canceller's Scheduler::Cancel finds no frame for them
// and leaves their outcome alone.  Holds the injector and scheduler
// directly — at scheduler teardown the injector may already be gone.
struct AttemptRegistration {
  FaultInjector* injector;
  sim::Scheduler* sched;
  QueryAttempt* attempt;
  AttemptRegistration(FaultInjector* inj, QueryAttempt* qa)
      : injector(inj), sched(&inj->sched()), attempt(qa) {
    injector->Register(qa);
  }
  ~AttemptRegistration() {
    if (!sched->tearing_down()) injector->Unregister(attempt);
  }
  AttemptRegistration(const AttemptRegistration&) = delete;
  AttemptRegistration& operator=(const AttemptRegistration&) = delete;
};

// Deadline watchdog for one attempt, armed with the query's *remaining*
// budget.  The timer is an ordinary calendar event, so work finishing and
// the timer firing at the same timestamp resolve by calendar FIFO,
// deterministically: work that has ended is no longer there to cancel.
sim::Task<> AttemptTimer(sim::Scheduler& sched, SimTime delay_ms,
                         QueryAttempt* qa) {
  co_await sched.Delay(delay_ms);
  if (sched.Cancel(qa->work_id)) qa->outcome = StatusCode::kDeadlineExceeded;
}

}  // namespace

FaultInjector::FaultInjector(Cluster& cluster)
    : cluster_(cluster),
      // Same derivation as the Cluster's own streams (root = Rng(seed),
      // workload = Fork(1), arrivals = Fork(2)); stream 3 is reserved for
      // fault timing so enabling faults never perturbs the others.
      fault_rng_(sim::Rng(cluster.config().seed).Fork(3)) {}

bool FaultInjector::PeFailed(PeId pe) const { return cluster_.pe(pe).failed(); }

bool FaultInjector::LinkBlocked(PeId pe,
                                const std::vector<PeId>& others) const {
  if (!cluster_.net().AnyPartitions()) return false;
  for (PeId other : others) {
    if (other != pe && cluster_.net().Partitioned(pe, other)) return true;
  }
  return false;
}

sim::Scheduler& FaultInjector::sched() { return cluster_.sched(); }

void FaultInjector::Unregister(QueryAttempt* attempt) {
  auto it = std::find(active_.begin(), active_.end(), attempt);
  if (it != active_.end()) {
    *it = active_.back();
    active_.pop_back();
  }
}

void FaultInjector::SpawnFaultProcesses() {
  const FaultConfig& faults = cluster_.config().faults;
  for (const FaultEvent& event : faults.events) {
    cluster_.sched().Spawn(ApplyAt(event));
  }
  if (faults.crash_rate_per_pe_per_min > 0.0) {
    for (PeId pe = 0; pe < cluster_.config().num_pes; ++pe) {
      cluster_.sched().Spawn(RandomFaultLoop(pe));
    }
  }
}

sim::Task<> FaultInjector::ApplyAt(FaultEvent event) {
  co_await cluster_.sched().Delay(event.at_ms);
  // Events scheduled for the same timestamp apply in spec order: they are
  // spawned in spec order and the calendar dispatches equal-time events
  // FIFO, so e.g. "crash@t:pe1;recover@t:pe1" crashes then recovers while
  // the reversed spec leaves the PE down (pinned in tests/fault_test.cc).
  switch (event.kind) {
    case FaultKind::kCrash:
      ApplyCrash(event.pe);
      break;
    case FaultKind::kRecover:
      ApplyRecovery(event.pe);
      break;
    case FaultKind::kSlowDisk:
      cluster_.pe(event.pe).disks().SetServiceMultiplier(event.factor);
      break;
    case FaultKind::kPartition:
      ApplyPartition(event.pe, event.pe2);
      break;
    case FaultKind::kHeal:
      ApplyHeal(event.pe, event.pe2);
      break;
    case FaultKind::kSlowLink:
      cluster_.net().SetLinkDelayMultiplier(event.pe, event.pe2,
                                            event.factor);
      break;
    case FaultKind::kAddPe:
      cluster_.elastic().OnAddPe(event.pe);
      break;
    case FaultKind::kDrainPe:
      cluster_.elastic().OnDrainPe(event.pe);
      break;
  }
}

sim::Task<> FaultInjector::RandomFaultLoop(PeId pe) {
  const FaultConfig& faults = cluster_.config().faults;
  // Each PE gets its own fault stream so the crash/repair history of one PE
  // is independent of how many faults the others drew.
  sim::Rng rng = fault_rng_.Fork(static_cast<uint64_t>(pe));
  const double mean_up_ms =
      60000.0 / faults.crash_rate_per_pe_per_min;  // rate is per minute
  while (true) {
    co_await cluster_.sched().Delay(rng.Exponential(mean_up_ms));
    // Keep the cluster able to make progress: never take down the last PE.
    if (cluster_.control().AliveCount() <= 1) continue;
    ApplyCrash(pe);
    co_await cluster_.sched().Delay(rng.Exponential(faults.mttr_ms));
    ApplyRecovery(pe);
  }
}

void FaultInjector::ApplyCrash(PeId pe) {
  ProcessingElement& elem = cluster_.pe(pe);
  if (elem.failed()) return;
  if (cluster_.control().AliveCount() <= 1) return;
  cluster_.SetPeState(pe, /*failed=*/true, elem.member());
  cluster_.metrics().RecordPeCrash();

  // Cancel every resident attempt.  Cancellation destroys the attempt frame
  // mid-suspension; its cancellation-aware awaiters and RAII guards release
  // buffer reservations, lock entries and admission slots at *all* PEs the
  // attempt touched (not just the crashed one), so the accounting below
  // starts from a clean slate.  The registrations live in the supervisors'
  // frames, which a cancellation does not touch, so active_ holds still.
  // An attempt that has ended but whose supervisor has not resumed yet is
  // not there to cancel, and keeps its outcome.
  for (QueryAttempt* qa : active_) {
    if (qa->Touches(pe) && cluster_.sched().Cancel(qa->work_id)) {
      qa->outcome = StatusCode::kUnavailable;
    }
  }

  // Abort any fragment migration touching this PE first: the cancelled
  // migrator frame returns its destination staging reservation, which the
  // buffer wipe below asserts is gone.
  if (cluster_.elastic_enabled()) cluster_.elastic().OnPeCrash(pe);

  // Volatile state is lost; asserts that the unwind above accounted every
  // reservation and queued request before wiping the cache.
  elem.buffer().OnCrash();
}

void FaultInjector::ApplyPartition(PeId a, PeId b) {
  if (cluster_.net().Partitioned(a, b)) return;
  cluster_.net().SetPartitioned(a, b, true);
  cluster_.metrics().RecordLinkPartition();

  // Resident attempts already spanning the cut link lose their coordination
  // path mid-query: cancel them like a crash does (kUnavailable into the
  // retry path), unwinding their resources through the cancellation-aware
  // guards.  Attempts touching at most one endpoint keep running, and new
  // attempts fail fast at AddParticipant while the partition holds.
  for (QueryAttempt* qa : active_) {
    if (qa->Touches(a) && qa->Touches(b) &&
        cluster_.sched().Cancel(qa->work_id)) {
      qa->outcome = StatusCode::kUnavailable;
    }
  }
}

void FaultInjector::ApplyHeal(PeId a, PeId b) {
  cluster_.net().SetPartitioned(a, b, false);
}

void FaultInjector::ApplyRecovery(PeId pe) {
  ProcessingElement& elem = cluster_.pe(pe);
  if (!elem.failed()) return;
  // A recovered member rejoins the planning views with an idle report;
  // non-members (spares, draining PEs) stay out of them.
  cluster_.SetPeState(pe, /*failed=*/false, elem.member());
  cluster_.metrics().RecordPeRecovery();
  // A recovered draining PE resumes vacating; a crashed-then-recovered
  // joiner gets refilled.
  if (cluster_.elastic_enabled()) cluster_.elastic().OnPeRecovered(pe);
}

sim::Task<> FaultInjector::Supervise(QueryClass cls, PeId home) {
  const FaultConfig& faults = cluster_.config().faults;
  const RetryPolicy& retry = faults.retry;
  sim::Scheduler& sched = cluster_.sched();

  // Deadline assignment happens once per query, in arrival order, from the
  // workload stream — deterministic and independent of fault timing.
  bool has_deadline = faults.TimeoutsEnabled() &&
                      (faults.timeout_fraction >= 1.0 ||
                       cluster_.workload_rng().Uniform() <
                           faults.timeout_fraction);
  const SimTime t0 = sched.Now();
  bool retried = false;
  bool plan_degraded = false;

  for (int attempt = 1;; ++attempt) {
    SimTime remaining_ms = 0.0;
    if (has_deadline) {
      remaining_ms = faults.query_timeout_ms - (sched.Now() - t0);
      if (remaining_ms <= 0.0) {
        // The backoff ate the whole budget; no point starting the attempt.
        cluster_.metrics().RecordQueryTimedOut(sched.Now());
        co_return;
      }
    }

    StatusCode outcome = StatusCode::kOk;
    {
      QueryAttempt qa;
      qa.injector = this;
      AttemptRegistration registration(this, &qa);
      // The children are detached frames pointing into this frame, each in
      // a one-member group: leaving this scope, or this frame being
      // cancelled mid-wait, cancels whichever is still running (the timer
      // first, as its group is destroyed first).
      const sim::TraceTag tag(sim::TraceSubsystem::kLatch);
      sim::TaskGroup work(sched, tag);
      sim::TaskGroup timer(sched, tag);
      qa.work_id = work.Spawn(ExecuteQuery(cluster_, cls, home, &qa));
      if (has_deadline) timer.Spawn(AttemptTimer(sched, remaining_ms, &qa));
      co_await work.Wait();
      outcome = qa.outcome;
      // The final attempt's plan decides whether the query counts as
      // degraded (an earlier capped-but-cancelled attempt already counts
      // through `retried`).
      plan_degraded = qa.degraded_plan;
    }

    switch (outcome) {
      case StatusCode::kOk:
        if (retried || plan_degraded) {
          cluster_.metrics().RecordQueryDegraded(sched.Now());
        }
        co_return;
      case StatusCode::kDeadlineExceeded:
        cluster_.metrics().RecordQueryTimedOut(sched.Now());
        co_return;
      case StatusCode::kResourceExhausted:
        // Shed at admission by the overload controller; counted at the
        // shed site (queries_shed) and deliberately never retried — the
        // whole point is to take pressure off the admission queues.
        co_return;
      default: {  // kUnavailable: the attempt hit a failed PE.
        if (attempt >= retry.max_attempts) {
          cluster_.metrics().RecordQueryFailed(sched.Now());
          co_return;
        }
        cluster_.metrics().RecordQueryRetried(sched.Now());
        retried = true;
        // Capped exponential backoff, each step twice the last.
        constexpr double kBackoffMultiplier = 2.0;
        // Relative jitter: the backoff is scaled by 1 ± kJitterFrac * U.
        constexpr double kJitterFrac = 0.2;
        double backoff =
            retry.initial_backoff_ms *
            std::pow(kBackoffMultiplier, static_cast<double>(attempt - 1));
        backoff = std::min(backoff, RetryPolicy::kMaxBackoffMs);
        // Seeded jitter from the workload stream keeps retry storms apart
        // without breaking determinism.
        backoff *= 1.0 + kJitterFrac *
                             (2.0 * cluster_.workload_rng().Uniform() - 1.0);
        co_await sched.Delay(backoff);
      }
    }
  }
}

}  // namespace pdblb
