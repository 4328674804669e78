// Copyright 2026 the pdblb authors. MIT license.

#include "engine/faults.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "engine/cluster.h"
#include "engine/elastic.h"

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

// Registers the attempt with the injector for the lifetime of the attempt
// frame.  Holds the injector and scheduler directly — at scheduler teardown
// the QueryAttempt (a supervisor-frame local) may already be gone, and the
// registry with it.
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

// One supervised attempt: runs the executor coroutine to completion and
// releases the supervisor.  When the attempt is cancelled (crash, deadline)
// the registration unregisters as this frame unwinds and the *canceller*
// counts the latch down.
sim::Task<> RunAttempt(FaultInjector* injector, sim::Task<> work,
                       QueryAttempt* qa) {
  AttemptRegistration registration(injector, qa);
  co_await std::move(work);
  qa->done->CountDown();
}

// Deadline watchdog for one attempt, armed with the query's *remaining*
// budget.  The timer is an ordinary calendar event, so work finishing and
// the timer firing at the same timestamp resolve by calendar FIFO,
// deterministically (Supervise spawns both and waits for the first).
sim::Task<> AttemptTimer(sim::Scheduler& sched, SimTime delay_ms,
                         QueryAttempt* qa) {
  co_await sched.Delay(delay_ms);
  if (qa->done->Done()) co_return;
  qa->outcome = StatusCode::kDeadlineExceeded;
  sched.Cancel(qa->work_id);
  qa->done->CountDown();
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
    if (cluster_.sched().ShuttingDown()) co_return;
    // Keep the cluster able to make progress: never take down the last PE.
    if (cluster_.control().AliveCount() <= 1) continue;
    ApplyCrash(pe);
    co_await cluster_.sched().Delay(rng.Exponential(faults.mttr_ms));
    if (cluster_.sched().ShuttingDown()) co_return;
    ApplyRecovery(pe);
  }
}

void FaultInjector::ApplyCrash(PeId pe) {
  ProcessingElement& elem = cluster_.pe(pe);
  if (elem.failed()) return;
  if (cluster_.control().AliveCount() <= 1) return;
  elem.set_failed(true);
  cluster_.control().MarkDown(pe);  // idempotent: non-members already down
  cluster_.metrics().RecordPeCrash();

  // Cancel every resident attempt.  Cancellation destroys the attempt frame
  // mid-suspension; its cancellation-aware awaiters and RAII guards release
  // buffer reservations, lock entries and admission slots at *all* PEs the
  // attempt touched (not just the crashed one), so the accounting below
  // starts from a clean slate.  Iterate over a copy: each cancellation
  // unregisters from active_ via AttemptRegistration.
  std::vector<QueryAttempt*> victims;
  for (QueryAttempt* qa : active_) {
    if (qa->Touches(pe)) victims.push_back(qa);
  }
  for (QueryAttempt* qa : victims) {
    qa->outcome = StatusCode::kUnavailable;
    cluster_.sched().Cancel(qa->work_id);
    if (!qa->done->Done()) qa->done->CountDown();
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
  std::vector<QueryAttempt*> victims;
  for (QueryAttempt* qa : active_) {
    if (qa->Touches(a) && qa->Touches(b)) victims.push_back(qa);
  }
  for (QueryAttempt* qa : victims) {
    qa->outcome = StatusCode::kUnavailable;
    cluster_.sched().Cancel(qa->work_id);
    if (!qa->done->Done()) qa->done->CountDown();
  }
}

void FaultInjector::ApplyHeal(PeId a, PeId b) {
  cluster_.net().SetPartitioned(a, b, false);
}

void FaultInjector::ApplyRecovery(PeId pe) {
  ProcessingElement& elem = cluster_.pe(pe);
  if (!elem.failed()) return;
  elem.set_failed(false);
  cluster_.metrics().RecordPeRecovery();
  if (elem.member()) {
    cluster_.control().MarkUp(pe);
    // A recovered PE reboots idle with a cold buffer: refresh the control
    // node's view immediately so strategies rebalance onto it without
    // waiting for the next report interval.  Non-members (spares, draining
    // PEs) stay out of the planning views.
    cluster_.control().Report(pe, 0.0, elem.buffer().AvailablePages(), 0.0);
  }
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
      sim::Latch done(sched, 1);
      QueryAttempt qa;
      qa.injector = this;
      qa.done = &done;

      // Children are detached frames pointing into this frame; if this
      // frame is itself cancelled mid-wait they must go first.  Cancel of a
      // finished id no-ops, so the guards are unconditional.
      struct ChildGuard {
        sim::Scheduler* sched;
        uint64_t id = 0;
        ~ChildGuard() {
          if (id != 0) sched->Cancel(id);
        }
      };
      ChildGuard work_guard{&sched};
      ChildGuard timer_guard{&sched};
      qa.work_id = sched.SpawnWithId(
          RunAttempt(this, ExecuteQuery(cluster_, cls, home, &qa), &qa));
      work_guard.id = qa.work_id;
      if (has_deadline) {
        timer_guard.id =
            sched.SpawnWithId(AttemptTimer(sched, remaining_ms, &qa));
      }
      co_await done.Wait();
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
        double backoff =
            retry.initial_backoff_ms *
            std::pow(retry.backoff_multiplier, static_cast<double>(attempt - 1));
        backoff = std::min(backoff, retry.max_backoff_ms);
        // Seeded jitter from the workload stream keeps retry storms apart
        // without breaking determinism.
        backoff *= 1.0 + retry.jitter_frac *
                             (2.0 * cluster_.workload_rng().Uniform() - 1.0);
        co_await sched.Delay(backoff);
      }
    }
  }
}

}  // namespace pdblb
