// Copyright 2026 the pdblb authors. MIT license.

#include "engine/scan_executor.h"

#include <algorithm>
#include <vector>

#include "engine/parop.h"
#include "engine/query.h"
#include "simkern/task_group.h"

namespace pdblb {
namespace {

using parop::FanOut;
using parop::LockPageShared;
using parop::SplitEvenly;
using parop::StartSubquery;
using parop::UseCpu;

/// Reads `pages` pages of the fragment homed at `node` through `exec`'s
/// buffer, from page `start` on and wrapping at the fragment's end, in
/// striped groups that spread over the disk array.  With `read_lock_txn` set
/// every page is read-locked at the home first; every tuple costs read_tuple.
sim::Task<> ReadPages(Cluster& c, PeId node, PeId exec, const Relation& rel,
                      int64_t start, int64_t pages, TxnId read_lock_txn) {
  const SystemConfig& cfg = c.config();
  const int64_t frag_pages = rel.PagesAt(node);
  const int64_t group_pages =
      static_cast<int64_t>(cfg.disk.prefetch_pages) * cfg.disk.disks_per_pe;
  for (int64_t done = 0; done < pages;) {
    int64_t pos = (start + done) % frag_pages;
    int64_t len = std::min({group_pages, pages - done, frag_pages - pos});
    if (read_lock_txn != 0) {
      for (int64_t i = 0; i < len; ++i) {
        co_await LockPageShared(c, node, read_lock_txn,
                                rel.DataPage(node, pos + i));
      }
    }
    co_await c.pe(exec).buffer().FetchRange(rel.DataPage(node, pos), len);
    co_await UseCpu(c, exec,
                    len * rel.blocking_factor() * cfg.costs.read_tuple);
    done += len;
  }
}

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
  const CpuCosts& costs = c.config().costs;
  ProcessingElement& pe = c.pe(exec);
  const int bf = rel.blocking_factor();
  const int64_t frag_pages = rel.PagesAt(node);

  switch (access) {
    case ScanAccess::kRelationScan:
      // Read every fragment page sequentially and examine every tuple.
      co_await ReadPages(c, node, exec, rel, 0, frag_pages, read_lock_txn);
      break;
    case ScanAccess::kClusteredIndex: {
      // Descend the index, then read just the selected range.
      co_await UseCpu(c, exec, costs.read_tuple * rel.IndexLevels(node));
      int64_t pages =
          std::min<int64_t>(frag_pages, (selected_share + bf - 1) / bf);
      int64_t start = c.workload_rng().UniformInt(
          0, std::max<int64_t>(0, frag_pages - 1));
      co_await ReadPages(c, node, exec, rel, start, pages, read_lock_txn);
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

/// The scan's fragment work, as the lifecycle's read-only body: start the
/// subqueries, scan every fragment in parallel, merge at the coordinator.
sim::Task<> ScanFragments(Cluster& c, Query& q) {
  const ScanQueryConfig& scan = c.config().scan_query;
  const Relation& rel = *q.target;
  const std::vector<PeId>& nodes = rel.home_pes();
  for (PeId node : nodes) q.locks->AddPe(node);
  // The data allocation prescribes the scan placement, so no control-node
  // round trip precedes the subquery startup.
  co_await FanOut(c, q.coord, q.sites, StartSubquery);

  const int64_t selected_total = static_cast<int64_t>(
      scan.selectivity * static_cast<double>(rel.num_tuples()));
  std::vector<int64_t> selected_share =
      SplitEvenly(selected_total, static_cast<int>(nodes.size()));
  sim::TaskGroup scans(c.sched());
  for (size_t i = 0; i < nodes.size(); ++i) {
    scans.Spawn(ScanFragment(c, nodes[i], q.sites[i], rel, scan.access,
                             selected_share[i], q.coord, q.txn));
  }
  co_await scans.Wait();
  // Merge the sorted/streamed inputs at the coordinator.
  co_await UseCpu(c, q.coord, selected_total * c.config().costs.read_tuple);
}

/// One data processor's share of an update statement: locate the affected
/// tuples, lock their pages exclusively (from a random start, wrapping at
/// the fragment's end; the page X locks conflict with the page read locks
/// of queries under CcScheme::kTwoPhaseLocking), apply the updates.  Under
/// multiversion CC the before-images are copied to a version pool (extra
/// CPU per tuple and one asynchronous version-page write per dirtied page).
/// Sets *victim if this transaction was chosen as a deadlock victim.
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
    co_await ReadPages(c, node, exec, rel, 0, frag_pages, 0);
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

/// The update's fragment work, as the lifecycle's restartable body: start
/// the subqueries and update every fragment in parallel.  False when the
/// transaction lost a deadlock.
sim::Task<bool> UpdateFragments(Cluster& c, Query& q) {
  const UpdateQueryConfig& update = c.config().update_query;
  const Relation& rel = *q.target;
  const std::vector<PeId>& nodes = rel.home_pes();
  for (PeId node : nodes) q.locks->AddPe(node);
  co_await FanOut(c, q.coord, q.sites, StartSubquery);

  const int64_t update_total = std::max<int64_t>(
      1, static_cast<int64_t>(update.selectivity *
                              static_cast<double>(rel.num_tuples())));
  std::vector<int64_t> update_share =
      SplitEvenly(update_total, static_cast<int>(nodes.size()));
  bool victim = false;
  const int32_t version_rel = c.NextTempRelationId();
  sim::TaskGroup updates(c.sched());
  for (size_t i = 0; i < nodes.size(); ++i) {
    updates.Spawn(UpdateFragment(c, nodes[i], q.sites[i], rel,
                                 update.index_supported, update_share[i],
                                 q.txn, version_rel, &victim));
  }
  co_await updates.Wait();
  co_return !victim;
}

}  // namespace

sim::Task<> ExecuteScanQuery(Cluster& c, QueryAttempt* qa) {
  return RunQuery(c, QueryClass::kScan, qa,
                  Query(c.db().target(c.config().scan_query.relation)),
                  ScanFragments);
}

sim::Task<> ExecuteUpdateQuery(Cluster& c, QueryAttempt* qa) {
  return RunQuery(c, QueryClass::kUpdate, qa,
                  Query(c.db().target(c.config().update_query.relation)),
                  UpdateFragments);
}

}  // namespace pdblb
