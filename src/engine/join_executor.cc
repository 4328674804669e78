// Copyright 2026 the pdblb authors. MIT license.

#include "engine/join_executor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "core/cost_model.h"
#include "core/skew.h"
#include "engine/parop.h"
#include "engine/query.h"
#include "join/local_join.h"
#include "simkern/task_group.h"

namespace pdblb {
namespace {

using parop::BatchChannel;
using parop::Exchange;
using parop::FanOut;
using parop::Redistribute;
using parop::ScanRedistribute;
using parop::SplitEvenly;
using parop::UseCpu;

/// Join-processor side of the building phase.  Memory was already acquired
/// by the coordinator (in global PE order, which avoids hold-and-wait
/// deadlocks between concurrent joins on small buffers).
sim::Task<> BuildConsumer(LocalJoin* join, BatchChannel* channel) {
  while (auto batch = co_await channel->Receive()) {
    co_await join->InsertInnerBatch(batch->tuples);
  }
}

/// Join-processor side of the probing phase, including the deferred joins of
/// disk-resident partitions.  The result is materialized at the join
/// processor; the last stage ships it to the coordinator, an earlier stage
/// leaves it there as the next stage's inner input.
sim::Task<> ProbeConsumer(Cluster& c, LocalJoin* join, BatchChannel* channel,
                          PeId join_pe, PeId coord, int64_t result_tuples,
                          int tuple_size, bool last_stage) {
  while (auto batch = co_await channel->Receive()) {
    co_await join->ProbeBatch(batch->tuples);
  }
  co_await join->CompleteProbe();
  co_await UseCpu(c, join_pe,
                  result_tuples * c.config().costs.write_output_tuple);
  if (last_stage) {
    co_await c.net().Transfer(join_pe, coord, result_tuples * tuple_size);
  }
  join->Release();
}

/// The scan processors of the fragments of `rel`.  Under Shared Nothing the
/// data allocation prescribes them: each fragment is scanned by its current
/// owner.  Under Shared Disk ([27]) any PE can scan any fragment, so the
/// least CPU-utilized PEs (`by_cpu`) are picked.
std::vector<PeId> ScanSites(const Cluster& c, const Relation& rel,
                            const std::vector<PeLoadInfo>& by_cpu) {
  std::vector<PeId> sites = parop::FragmentOwners(c, rel);
  if (c.config().architecture == Architecture::kSharedDisk) {
    for (size_t i = 0; i < sites.size(); ++i) {
      sites[i] = by_cpu[i % by_cpu.size()].pe;
    }
  }
  return sites;
}

/// Spawns the parallel scan of `rel` as `ex`'s sources: the fragment homed
/// at homes[i] (its page keys and read-lock site) is scanned at sites[i],
/// selects an even share of `tuples` and redistributes it to the join
/// processors.
void SpawnScans(Cluster& c, Exchange& ex, const Relation& rel,
                const std::vector<PeId>& homes, const std::vector<PeId>& sites,
                int64_t tuples, TxnId read_txn) {
  std::vector<int64_t> share =
      SplitEvenly(tuples, static_cast<int>(homes.size()));
  for (size_t i = 0; i < homes.size(); ++i) {
    ex.sources().Spawn(ScanRedistribute(c, sites[i], rel, share[i], ex,
                                        read_txn, homes[i]));
  }
}

/// The pipeline's stages, as the lifecycle's read-only body: the commit
/// reaches every PE of every stage.
sim::Task<> JoinStages(Cluster& c, Query& q, int ways) {
  sim::Scheduler& sched = c.sched();
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  const Database& db = c.db();

  const int tuple_size = cfg.relation_a.tuple_size_bytes;
  const double theta = cfg.join_query.redistribution_skew;
  // The hash-table pages of an inner input of `tuples` tuples.
  auto hash_table_pages = [&cfg](int64_t tuples) {
    const int bf = cfg.relation_a.blocking_factor;
    return HashTablePages((tuples + bf - 1) / bf, cfg.join_query.fudge_factor);
  };
  int64_t inner_total = cfg.InnerInputTuples();
  // The previous stage's result: its join processors and the tuples each
  // holds (empty in stage 1, whose inner input is the scan of A).
  std::vector<PeId> result_pes;
  std::vector<int64_t> result_at;
  // Every PE that took part in any stage; all of them join the commit.
  std::set<PeId> participants;

  for (int stage = 1; stage < ways; ++stage) {
    const bool first = stage == 1;
    const bool last = stage == ways - 1;

    // Consult the control node for the current system state (request+reply).
    co_await c.net().ControlMessage(q.coord, 0);
    co_await c.net().ControlMessage(0, q.coord);
    JoinPlanRequest req = c.plan_request();
    if (!first) {
      // The inner input is the previous result, not the selection of A.
      req.hash_table_pages = hash_table_pages(inner_total);
      req.psu_noio = PsuNoIO(req.hash_table_pages, cfg.buffer.buffer_pages,
                             cfg.num_pes);
    }
    JoinPlan plan = c.policy().Plan(req, c.control(), c.workload_rng());
    const int p = plan.degree;
    if (first) q.degree = p;
    q.degraded = q.degraded || plan.degraded;

    // The stage's scans: A (stage 1 only, as the inner input) and the
    // outer input, B in stage 1 and C afterwards.
    const std::vector<PeLoadInfo> by_cpu =
        cfg.architecture == Architecture::kSharedDisk
            ? c.control().CpuSorted()
            : std::vector<PeLoadInfo>();
    const Relation& outer = first ? db.b() : db.c();
    const std::vector<PeId>& outer_homes =
        first ? db.b_nodes() : db.all_nodes();
    const std::vector<PeId> a_sites =
        first ? ScanSites(c, db.a(), by_cpu) : std::vector<PeId>();
    const std::vector<PeId> outer_sites = ScanSites(c, outer, by_cpu);
    const int64_t outer_total =
        first ? cfg.OuterInputTuples()
              : std::llround(cfg.join_query.scan_selectivity *
                             static_cast<double>(outer.num_tuples()));
    const int64_t result_total = static_cast<int64_t>(
        cfg.join_query.result_size_factor * static_cast<double>(inner_total));

    // The stage's participants: scan processors, the previous result's
    // holders and the join processors.
    std::set<PeId> stage_pes(a_sites.begin(), a_sites.end());
    stage_pes.insert(outer_sites.begin(), outer_sites.end());
    stage_pes.insert(result_pes.begin(), result_pes.end());
    if (cfg.architecture == Architecture::kSharedDisk) {
      // Under Shared Disk the homes are the lock sites whose liveness the
      // query needs.  Under Shared Nothing the scan sites above are the
      // fragments' owners: the homes themselves until a migration moves a
      // fragment, and then a drained (even dead) home serves nothing, so
      // only the owners gate the query's fate.
      if (first) stage_pes.insert(db.a_nodes().begin(), db.a_nodes().end());
      stage_pes.insert(outer_homes.begin(), outer_homes.end());
    }
    stage_pes.insert(plan.pes.begin(), plan.pes.end());
    if (q.attempt != nullptr &&
        !q.attempt->AddParticipants({stage_pes.begin(), stage_pes.end()})) {
      co_return;
    }
    // Read locks are taken at the homes' lock managers regardless of who
    // executes the scan; the guard must cover them for crash unwind.
    for (PeId pe : stage_pes) q.locks->AddPe(pe);
    if (first) {
      for (PeId pe : db.a_nodes()) q.locks->AddPe(pe);
    }
    for (PeId pe : outer_homes) q.locks->AddPe(pe);

    co_await FanOut(c, q.coord, stage_pes, parop::StartSubquery);
    participants.merge(stage_pes);

    // One local join instance per join processor.  The partitioning
    // function's per-destination fractions are uniform in the paper's base
    // setting; with configured redistribution skew they follow a Zipf law,
    // and the mapping of partitions to the selected PEs is either size-aware
    // (largest subjoin to the best PE — the planner returns PEs in goodness
    // order) or random (a size-oblivious hash partitioner).  With no skew
    // all weights are equal and the assignment is a no-op; skip the
    // permutation so the RNG stream (and thus the base experiments) is
    // untouched.
    std::vector<double> dest_frac =
        theta > 0.0 ? AssignWeights(ZipfWeights(p, theta),
                                    cfg.strategy.skew_aware_assignment,
                                    c.workload_rng())
                    : ZipfWeights(p, 0.0);
    std::vector<int64_t> inner_share = SplitWeighted(inner_total, dest_frac);
    std::vector<int64_t> outer_share = SplitWeighted(outer_total, dest_frac);
    std::vector<int64_t> result_share = SplitWeighted(result_total, dest_frac);

    std::vector<std::unique_ptr<LocalJoin>> joins;
    joins.reserve(p);
    for (int j = 0; j < p; ++j) {
      LocalJoinParams params;
      params.temp_relation_id = c.NextTempRelationId();
      params.expected_inner_tuples = inner_share[j];
      params.expected_outer_tuples = outer_share[j];
      params.blocking_factor = cfg.relation_a.blocking_factor;
      params.fudge_factor = cfg.join_query.fudge_factor;
      params.want_pages = plan.pages_per_pe;
      if (theta > 0.0) {
        // Skewed subjoins need working space proportional to their share;
        // the control node's uniform estimate is corrected so back-to-back
        // joins do not stack their dominant partitions on the same PE.
        params.want_pages = static_cast<int>(hash_table_pages(inner_share[j]));
        c.control().NoteSubjoinSize(plan.pes[j],
                                    params.want_pages - plan.pages_per_pe,
                                    dest_frac[j] * static_cast<double>(p));
      }
      params.write_batch_pages = cfg.disk.prefetch_pages;
      params.opportunistic_growth = cfg.pphj_opportunistic_growth;
      PeId jp = plan.pes[j];
      joins.push_back(CreateLocalJoin(cfg.local_join_method, sched,
                                      c.pe(jp).buffer(), c.pe(jp).disks(),
                                      c.pe(jp).cpu(), costs, cfg.mips_per_pe,
                                      params));
    }

    // Acquire working space at every join processor before the build
    // starts.  Acquisition follows ascending PE id (a global resource
    // order), so concurrent joins cannot deadlock on each other's memory
    // queues even when one query's hash table spans a large share of the
    // cluster memory.
    {
      std::vector<int> order(p);
      for (int j = 0; j < p; ++j) order[j] = j;
      std::sort(order.begin(), order.end(),
                [&](int a, int b) { return plan.pes[a] < plan.pes[b]; });
      SimTime queued_at = sched.Now();
      for (int j : order) {
        co_await joins[j]->AcquireMemory();
      }
      c.metrics().RecordMemoryQueueWait(sched.Now() - queued_at, sched.Now());
    }

    // --- building phase: scan A or redistribute the previous result, build
    // the hash tables ----------------------------------------------------
    {
      Exchange build(c, plan.pes, dest_frac);
      for (int j = 0; j < p; ++j) {
        build.consumers().Spawn(
            BuildConsumer(joins[j].get(), build.channel(j)));
      }
      if (first) {
        SpawnScans(c, build, db.a(), db.a_nodes(), a_sites, inner_total,
                   q.txn);
      } else {
        for (size_t i = 0; i < result_pes.size(); ++i) {
          build.sources().Spawn(Redistribute(c, result_pes[i], result_at[i],
                                             tuple_size, build));
        }
      }
      co_await build.Finish();
    }

    // --- probing phase: scan B or C, redistribute, probe, materialize the
    // result ------------------------------------------------------------
    {
      Exchange probe(c, plan.pes, dest_frac);
      for (int j = 0; j < p; ++j) {
        probe.consumers().Spawn(ProbeConsumer(
            c, joins[j].get(), probe.channel(j), plan.pes[j], q.coord,
            result_share[j], tuple_size, last));
      }
      SpawnScans(c, probe, outer, outer_homes, outer_sites, outer_total,
                 q.txn);
      co_await probe.Finish();
    }

    for (const auto& j : joins) {
      q.temp_pages_written += j->temp_pages_written();
      q.temp_pages_read += j->temp_pages_read();
    }
    // The result becomes the next stage's inner input.
    result_pes = std::move(plan.pes);
    result_at = std::move(result_share);
    inner_total = result_total;
  }

  q.sites.assign(participants.begin(), participants.end());
}

}  // namespace

sim::Task<> ExecuteJoinQuery(Cluster& c, int ways, QueryAttempt* qa) {
  return RunQuery(c, ways == 2 ? QueryClass::kJoin : QueryClass::kMultiwayJoin,
                  qa, Query{}, [ways](Cluster& cluster, Query& q) {
                    return JoinStages(cluster, q, ways);
                  });
}

}  // namespace pdblb
