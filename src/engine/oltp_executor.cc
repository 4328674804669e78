// Copyright 2026 the pdblb authors. MIT license.

#include "engine/oltp_executor.h"

#include <algorithm>

#include "engine/faults.h"
#include "engine/parop.h"

namespace pdblb {
namespace {

using parop::UseCpu;

/// One execution attempt under strict 2PL; returns false if this txn was
/// chosen as a deadlock victim while waiting for a lock.
sim::Task<bool> OltpAttempt(Cluster& c, PeId home, TxnId txn) {
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  ProcessingElement& pe = c.pe(home);
  const Relation* rel = c.db().oltp_relation(home);

  // The transaction request arrives as a message from the client terminal;
  // the reply is sent back at EOT (debit-credit interaction model).
  co_await UseCpu(c, home, costs.receive_message + costs.copy_message);
  co_await UseCpu(c, home, costs.initiate_txn);

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
        co_await pe.locks().Lock(txn, LockKey{rel->id(), tuple}, mode);
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

  // Commit: force the log, then terminate (no-force for data pages).
  co_await pe.disks().LogWrite();
  co_await UseCpu(c, home, costs.terminate_txn);
  co_await UseCpu(c, home, costs.send_message + costs.copy_message);
  co_return true;
}

}  // namespace

sim::Task<> ExecuteOltpTransaction(Cluster& c, PeId home, QueryAttempt* qa) {
  const SimTime t0 = c.sched().Now();
  ProcessingElement& pe = c.pe(home);
  if (qa != nullptr && !qa->AddParticipant(home)) co_return;
  co_await pe.admission().Acquire();
  AdmissionGuard admission(c.sched(), pe.admission());

  int aborts = 0;
  while (true) {
    TxnId txn = c.NextTxnId();
    TxnLocksGuard txn_locks(&c, txn);
    txn_locks.AddPe(home);
    bool ok = co_await OltpAttempt(c, home, txn);
    txn_locks.ReleaseNow();
    if (ok) break;
    ++aborts;
    // Deadlock victim: back off and restart with a fresh txn id.
    co_await c.sched().Delay(10.0);
  }

  admission.ReleaseNow();
  c.metrics().RecordOltp(c.sched().Now() - t0, aborts, c.sched().Now());
}

}  // namespace pdblb
