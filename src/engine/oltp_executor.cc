// Copyright 2026 the pdblb authors. MIT license.

#include "engine/oltp_executor.h"

#include <algorithm>

#include "engine/parop.h"
#include "engine/query.h"

namespace pdblb {
namespace {

using parop::UseCpu;

/// The debit-credit accesses at the transaction's home (the coordinator),
/// as the lifecycle's restartable body under strict 2PL; false when the
/// transaction lost a deadlock.
sim::Task<bool> OltpAccesses(Cluster& c, Query& q) {
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  const PeId home = q.coord;
  ProcessingElement& pe = c.pe(home);
  const Relation* rel = c.db().oltp_relation(home);
  q.locks->AddPe(home);

  const int64_t frag_pages = rel->PagesAt(home);
  const int bf = rel->blocking_factor();
  const int64_t hot_pages = std::min<int64_t>(cfg.oltp.hot_pages, frag_pages);

  for (int k = 0; k < cfg.oltp.tuple_accesses; ++k) {
    // Debit-credit skew: hot branch/teller pages vs. cold account pages.
    int64_t page;
    if (c.workload_rng().Uniform() < cfg.oltp.hot_access_fraction) {
      page = c.workload_rng().UniformInt(0, hot_pages - 1);
    } else {
      page = c.workload_rng().UniformInt(0, frag_pages - 1);
    }
    int64_t tuple = page * bf + c.workload_rng().UniformInt(0, bf - 1);

    LockMode mode =
        cfg.oltp.updates ? LockMode::kExclusive : LockMode::kShared;
    bool granted =
        co_await pe.locks().Lock(q.txn, LockKey{rel->id(), tuple}, mode);
    if (!granted) co_return false;

    // Non-clustered index: inner levels are assumed cached (CPU only), the
    // leaf page and the data page go through the buffer.  OLTP accesses have
    // priority and may steal join working space.
    co_await UseCpu(c, home, costs.read_tuple * rel->IndexLevels(home));
    int64_t leaf = tuple / std::max<int64_t>(1, rel->TuplesAt(home) /
                                                    std::max<int64_t>(
                                                        1, rel->IndexLeafPages(
                                                               home)));
    leaf = std::min(leaf, rel->IndexLeafPages(home) - 1);
    co_await pe.buffer().Fetch(rel->IndexLeafPage(home, leaf),
                               AccessPattern::kRandom,
                               /*priority_oltp=*/true);
    co_await pe.buffer().Fetch(rel->DataPage(home, page),
                               AccessPattern::kRandom,
                               /*priority_oltp=*/true);
    co_await UseCpu(c, home, costs.read_tuple);
    if (cfg.oltp.updates) {
      co_await UseCpu(c, home, costs.write_output_tuple);
      if (cfg.cc_scheme == CcScheme::kMultiversion) {
        // Version maintenance: copy the before-image to the version pool.
        co_await UseCpu(c, home, costs.write_output_tuple);
      }
      pe.buffer().MarkDirty(rel->DataPage(home, page));
    }
  }
  if (cfg.oltp.updates && cfg.cc_scheme == CcScheme::kMultiversion) {
    // One batched version-page append per transaction.
    co_await UseCpu(c, home, costs.io_overhead);
    c.sched().Spawn(
        pe.disks().WriteBatch(PageKey{c.NextTempRelationId(), 0}, 1));
  }
  co_return true;
}

}  // namespace

sim::Task<> ExecuteOltpTransaction(Cluster& c, PeId home, QueryAttempt* qa) {
  return RunQuery(c, QueryClass::kOltp, qa, Query(home), OltpAccesses);
}

}  // namespace pdblb
