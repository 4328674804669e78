// Copyright 2026 the pdblb authors. MIT license.

#include "engine/scan_executor.h"

#include <algorithm>
#include <vector>

#include "engine/faults.h"
#include "engine/parop.h"
#include "simkern/task_group.h"

namespace pdblb {
namespace {

using parop::CommitRound;
using parop::DeliverControl;
using parop::FragmentOwners;
using parop::LockPageShared;
using parop::SplitEvenly;
using parop::TwoPhaseCommitRounds;
using parop::UseCpu;

/// One data processor's share of a scan query: locate + read + filter the
/// fragment, then ship the selected tuples to the coordinator.  Under
/// strict 2PL (`read_lock_txn` != 0) every touched page is read-locked.
/// `node` is the fragment's immutable home (geometry, page keys, lock
/// site); `exec` the current owner whose buffer/CPU/disks serve it (equal
/// until an elastic migration moves the fragment).
sim::Task<> ScanFragment(Cluster& c, PeId node, PeId exec,
                         const Relation& rel, ScanAccess access,
                         int64_t selected_share, PeId coord,
                         TxnId read_lock_txn) {
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  ProcessingElement& pe = c.pe(exec);
  const int bf = rel.blocking_factor();
  const int64_t frag_pages = rel.PagesAt(node);

  switch (access) {
    case ScanAccess::kRelationScan: {
      // Read every fragment page sequentially and examine every tuple.
      const int64_t group_pages =
          static_cast<int64_t>(cfg.disk.prefetch_pages) *
          cfg.disk.disks_per_pe;
      for (int64_t pos = 0; pos < frag_pages; pos += group_pages) {
        int64_t len = std::min(group_pages, frag_pages - pos);
        if (read_lock_txn != 0) {
          for (int64_t i = 0; i < len; ++i) {
            co_await LockPageShared(c, node, read_lock_txn,
                                    rel.DataPage(node, pos + i));
          }
        }
        co_await pe.buffer().FetchRange(rel.DataPage(node, pos), len);
        co_await UseCpu(c, exec, len * bf * costs.read_tuple);
      }
      break;
    }
    case ScanAccess::kClusteredIndex: {
      // Descend the index, then read just the selected range.
      co_await UseCpu(c, exec, costs.read_tuple * rel.IndexLevels(node));
      int64_t pages =
          std::min<int64_t>(frag_pages, (selected_share + bf - 1) / bf);
      int64_t start = c.workload_rng().UniformInt(
          0, std::max<int64_t>(0, frag_pages - 1));
      const int64_t group_pages =
          static_cast<int64_t>(cfg.disk.prefetch_pages) *
          cfg.disk.disks_per_pe;
      for (int64_t done = 0; done < pages;) {
        int64_t pos = (start + done) % frag_pages;
        int64_t len = std::min({group_pages, pages - done, frag_pages - pos});
        if (read_lock_txn != 0) {
          for (int64_t i = 0; i < len; ++i) {
            co_await LockPageShared(c, node, read_lock_txn,
                                    rel.DataPage(node, pos + i));
          }
        }
        co_await pe.buffer().FetchRange(rel.DataPage(node, pos), len);
        co_await UseCpu(c, exec, len * bf * costs.read_tuple);
        done += len;
      }
      break;
    }
    case ScanAccess::kUnclusteredIndex: {
      // Descend once, then one leaf page and one (random) data page per
      // qualifying tuple — the access path OLTP uses, scaled up.
      co_await UseCpu(c, exec, costs.read_tuple * rel.IndexLevels(node));
      int64_t leaf_pages = std::max<int64_t>(1, rel.IndexLeafPages(node));
      for (int64_t t = 0; t < selected_share; ++t) {
        int64_t leaf = c.workload_rng().UniformInt(0, leaf_pages - 1);
        co_await pe.buffer().Fetch(rel.IndexLeafPage(node, leaf),
                                   AccessPattern::kRandom);
        int64_t page = c.workload_rng().UniformInt(
            0, std::max<int64_t>(0, frag_pages - 1));
        if (read_lock_txn != 0) {
          co_await LockPageShared(c, node, read_lock_txn,
                                  rel.DataPage(node, page));
        }
        co_await pe.buffer().Fetch(rel.DataPage(node, page),
                                   AccessPattern::kRandom);
        co_await UseCpu(c, exec, costs.read_tuple);
      }
      break;
    }
  }

  // Materialize and ship the selected tuples to the coordinator.
  co_await UseCpu(c, exec, selected_share * costs.write_output_tuple);
  if (exec != coord && selected_share > 0) {
    co_await c.net().Transfer(exec, coord,
                              selected_share * rel.config().tuple_size_bytes);
  }
}

}  // namespace

sim::Task<> ExecuteScanQuery(Cluster& c, QueryAttempt* qa) {
  sim::Scheduler& sched = c.sched();
  const SystemConfig& cfg = c.config();
  const ScanQueryConfig& q = cfg.scan_query;
  const CpuCosts& costs = cfg.costs;
  const SimTime t0 = sched.Now();

  const Relation& rel = c.db().target(q.relation);
  const std::vector<PeId>& nodes = c.db().target_nodes(q.relation);
  // Execution sites: the fragments' current owners.  Data processing,
  // messages and admission happen at the owner; geometry and the read-lock
  // site stay at the home.
  const std::vector<PeId> execs = FragmentOwners(c, rel, nodes);

  const PeId coord = c.MemberPe(
      static_cast<PeId>(c.workload_rng().UniformInt(0, c.num_pes() - 1)));
  if (qa != nullptr &&
      (!qa->AddParticipant(coord) || !qa->AddParticipants(execs))) {
    co_return;
  }
  co_await c.pe(coord).admission().Acquire();
  AdmissionGuard admission(sched, c.pe(coord).admission());
  co_await UseCpu(c, coord, costs.initiate_txn);

  const TxnId read_txn =
      cfg.cc_scheme == CcScheme::kTwoPhaseLocking ? c.NextTxnId() : 0;
  TxnLocksGuard read_locks(&c, read_txn);
  for (PeId node : nodes) read_locks.AddPe(node);

  // Subquery startup (the scan placement is prescribed by the data
  // allocation, so no control-node round trip is needed).
  {
    sim::TaskGroup startup(sched);
    for (PeId dest : execs) {
      if (dest == coord) continue;
      co_await UseCpu(c, coord, costs.send_message + costs.copy_message);
      startup.Spawn(DeliverControl(c, dest));
    }
    co_await startup.Wait();
  }

  const int64_t selected_total = static_cast<int64_t>(
      q.selectivity * static_cast<double>(rel.num_tuples()));
  std::vector<int64_t> selected_share =
      SplitEvenly(selected_total, static_cast<int>(nodes.size()));

  {
    sim::TaskGroup scans(sched);
    for (size_t i = 0; i < nodes.size(); ++i) {
      scans.Spawn(ScanFragment(c, nodes[i], execs[i], rel, q.access,
                               selected_share[i], coord, read_txn));
    }
    co_await scans.Wait();
  }

  // Merge the sorted/streamed inputs at the coordinator.
  co_await UseCpu(c, coord, selected_total * costs.read_tuple);

  // Read-only optimized commit: one round to release the read locks at the
  // data processors.
  {
    sim::TaskGroup commits(sched);
    for (PeId dest : execs) {
      if (dest == coord) continue;
      co_await UseCpu(c, coord, costs.send_message + costs.copy_message);
      commits.Spawn(CommitRound(c, coord, dest));
    }
    co_await commits.Wait();
    read_locks.ReleaseNow();
  }
  co_await UseCpu(c, coord, costs.terminate_txn);
  admission.ReleaseNow();
  c.metrics().RecordScan(sched.Now() - t0, sched.Now());
}

namespace {

/// One data processor's share of an update statement: locate the affected
/// tuples, lock their pages exclusively (ascending within the fragment, so
/// page locks conflict with the page-level read locks of queries under
/// CcScheme::kTwoPhaseLocking), apply the updates.  Under multiversion CC
/// the before-images are copied to a version pool (extra CPU per tuple and
/// one asynchronous version-page write per dirtied page).  Sets *victim if
/// this transaction was chosen as a deadlock victim.
sim::Task<> UpdateFragment(Cluster& c, PeId node, PeId exec,
                           const Relation& rel, bool index_supported,
                           int64_t update_share, TxnId txn,
                           int32_t version_relation_id, bool* victim) {
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  // Home/owner split as in ScanFragment: pages and CPU are served by the
  // owner, while the X locks stay at the home's lock manager — the
  // fragment's lock site never moves, so updates and scans of a migrated
  // fragment still conflict at one place.
  ProcessingElement& pe = c.pe(exec);
  const int bf = rel.blocking_factor();
  const int64_t frag_pages = rel.PagesAt(node);
  if (update_share <= 0 || frag_pages <= 0) co_return;

  const int64_t pages =
      std::min<int64_t>(frag_pages, (update_share + bf - 1) / bf);
  const int64_t start =
      c.workload_rng().UniformInt(0, std::max<int64_t>(0, frag_pages - 1));

  if (index_supported) {
    // Clustered-index descent straight to the affected range.
    co_await UseCpu(c, exec, costs.read_tuple * rel.IndexLevels(node));
  } else {
    // No index support: full fragment scan to find the affected tuples.
    const int64_t group_pages = static_cast<int64_t>(cfg.disk.prefetch_pages) *
                                cfg.disk.disks_per_pe;
    for (int64_t pos = 0; pos < frag_pages; pos += group_pages) {
      int64_t len = std::min(group_pages, frag_pages - pos);
      co_await pe.buffer().FetchRange(rel.DataPage(node, pos), len);
      co_await UseCpu(c, exec, len * bf * costs.read_tuple);
    }
  }

  const bool mvcc = cfg.cc_scheme == CcScheme::kMultiversion;
  int64_t remaining = update_share;
  int64_t version_page = 0;
  for (int64_t i = 0; i < pages && remaining > 0; ++i) {
    int64_t page = (start + i) % frag_pages;
    PageKey key = rel.DataPage(node, page);
    bool granted = co_await c.pe(node).locks().Lock(
        txn, LockKey{key.relation_id, key.page_no}, LockMode::kExclusive);
    if (!granted) {
      *victim = true;
      co_return;
    }
    co_await pe.buffer().Fetch(key, AccessPattern::kSequential);
    int64_t in_page = std::min<int64_t>(bf, remaining);
    remaining -= in_page;
    co_await UseCpu(c, exec, in_page * (costs.read_tuple +
                                        costs.write_output_tuple));
    if (mvcc) {
      // Copy the before-images into the version pool: one extra tuple write
      // each plus an asynchronous version-page append.
      co_await UseCpu(c, exec, in_page * costs.write_output_tuple +
                                   costs.io_overhead);
      c.sched().Spawn(pe.disks().WriteBatch(
          PageKey{version_relation_id, version_page++}, 1));
    }
    pe.buffer().MarkDirty(key);
  }
}

}  // namespace

sim::Task<> ExecuteUpdateQuery(Cluster& c, QueryAttempt* qa) {
  sim::Scheduler& sched = c.sched();
  const SystemConfig& cfg = c.config();
  const UpdateQueryConfig& q = cfg.update_query;
  const CpuCosts& costs = cfg.costs;
  const SimTime t0 = sched.Now();

  const Relation& rel = c.db().target(q.relation);
  const std::vector<PeId>& nodes = c.db().target_nodes(q.relation);
  const std::vector<PeId> execs = FragmentOwners(c, rel, nodes);

  const PeId coord = c.MemberPe(
      static_cast<PeId>(c.workload_rng().UniformInt(0, c.num_pes() - 1)));
  if (qa != nullptr &&
      (!qa->AddParticipant(coord) || !qa->AddParticipants(execs))) {
    co_return;
  }
  co_await c.pe(coord).admission().Acquire();
  AdmissionGuard admission(sched, c.pe(coord).admission());

  const int64_t update_total = std::max<int64_t>(
      1, static_cast<int64_t>(q.selectivity *
                              static_cast<double>(rel.num_tuples())));
  std::vector<int64_t> update_share =
      SplitEvenly(update_total, static_cast<int>(nodes.size()));

  int aborts = 0;
  while (true) {
    TxnId txn = c.NextTxnId();
    TxnLocksGuard txn_locks(&c, txn);
    for (PeId node : nodes) txn_locks.AddPe(node);
    co_await UseCpu(c, coord, costs.initiate_txn);

    {
      sim::TaskGroup startup(sched);
      for (PeId dest : execs) {
        if (dest == coord) continue;
        co_await UseCpu(c, coord, costs.send_message + costs.copy_message);
        startup.Spawn(DeliverControl(c, dest));
      }
      co_await startup.Wait();
    }

    bool victim = false;
    {
      const int32_t version_rel = c.NextTempRelationId();
      sim::TaskGroup updates(sched);
      for (size_t i = 0; i < nodes.size(); ++i) {
        updates.Spawn(UpdateFragment(c, nodes[i], execs[i], rel,
                                     q.index_supported, update_share[i], txn,
                                     version_rel, &victim));
      }
      co_await updates.Wait();
    }

    if (!victim) {
      // Full two-phase commit: every participant forces its log in the
      // prepare phase; the coordinator serializes its message sends.
      sim::TaskGroup commits(sched);
      for (PeId dest : execs) {
        if (dest == coord) continue;
        co_await UseCpu(c, coord, costs.send_message + costs.copy_message);
        commits.Spawn(TwoPhaseCommitRounds(c, coord, dest));
      }
      co_await c.pe(coord).disks().LogWrite();
      co_await commits.Wait();
      txn_locks.ReleaseNow();
      co_await UseCpu(c, coord, costs.terminate_txn);
      break;
    }

    // Deadlock victim: release everything, back off, restart.
    txn_locks.ReleaseNow();
    ++aborts;
    co_await sched.Delay(10.0);
  }

  admission.ReleaseNow();
  c.metrics().RecordUpdate(sched.Now() - t0, aborts, sched.Now());
}

}  // namespace pdblb
