// Copyright 2026 the pdblb authors. MIT license.

#include "engine/elastic.h"

#include <algorithm>
#include <cassert>

#include "catalog/database.h"
#include "engine/cluster.h"
#include "engine/faults.h"
#include "lockmgr/lock_manager.h"
#include "simkern/task_group.h"

namespace pdblb {

namespace planner {

namespace {

// Deterministic fragment ordering for donor selection: largest first, ties
// by (relation id, home id) ascending.
bool FragmentBefore(const Fragment& a, const Fragment& b) {
  if (a.pages != b.pages) return a.pages > b.pages;
  if (a.relation_id != b.relation_id) return a.relation_id < b.relation_id;
  return a.home < b.home;
}

}  // namespace

std::vector<FragmentMove> Plan(const std::vector<Fragment>& fragments,
                               const std::vector<PeState>& pes) {
  std::vector<FragmentMove> moves;
  const int n = static_cast<int>(pes.size());

  // Simulated state: fragment owners and per-receiver page loads evolve as
  // moves are emitted, so the emitted sequence is exactly what execution
  // will produce (absent crashes).
  std::vector<Fragment> frags(fragments);
  std::stable_sort(frags.begin(), frags.end(), FragmentBefore);
  std::vector<int64_t> load(static_cast<size_t>(n), 0);
  int receivers = 0;
  for (int pe = 0; pe < n; ++pe) {
    if (pes[pe].receive) ++receivers;
  }
  if (receivers == 0) return moves;
  for (const Fragment& f : frags) {
    if (f.owner >= 0 && f.owner < n && pes[f.owner].receive) {
      load[f.owner] += f.pages;
    }
  }

  auto emit = [&](Fragment& f, PeId to) {
    moves.push_back({f.relation_id, f.home, f.owner, to, f.pages});
    if (pes[f.owner].receive) load[f.owner] -= f.pages;
    load[to] += f.pages;
    f.owner = to;
  };

  // Phase 1 — vacate draining PEs: largest fragment first, each to the
  // least-loaded receiver (ties by lowest PE id).
  for (Fragment& f : frags) {
    if (f.owner < 0 || f.owner >= n) continue;
    if (!pes[f.owner].vacate || !pes[f.owner].alive) continue;
    PeId dest = -1;
    for (int pe = 0; pe < n; ++pe) {
      if (!pes[pe].receive) continue;
      if (dest < 0 || load[pe] < load[dest]) dest = pe;
    }
    if (dest < 0) break;  // no receiver alive: stuck until one recovers
    emit(f, dest);
  }

  // Phase 2 — fill added PEs: each (ascending id) takes the largest
  // fragment from the most-loaded established receiver as long as the move
  // strictly narrows the donor/newcomer gap.  Established members are never
  // shuffled among themselves.
  for (int fill_pe = 0; fill_pe < n; ++fill_pe) {
    if (!pes[fill_pe].fill || !pes[fill_pe].receive) continue;
    for (size_t guard = frags.size(); guard > 0; --guard) {
      PeId donor = -1;
      for (int pe = 0; pe < n; ++pe) {
        if (!pes[pe].receive || pes[pe].fill || pe == fill_pe) continue;
        if (donor < 0 || load[pe] > load[donor]) donor = pe;
      }
      if (donor < 0) break;
      Fragment* pick = nullptr;
      const int64_t gap = load[donor] - load[fill_pe];
      for (Fragment& f : frags) {  // frags sorted: first hit is largest
        if (f.owner != donor) continue;
        if (f.pages > 0 && f.pages < gap) {
          pick = &f;
          break;
        }
      }
      if (pick == nullptr) break;
      emit(*pick, fill_pe);
    }
  }
  return moves;
}

}  // namespace planner

namespace {

const Relation& RelationById(const Database& db, int32_t id) {
  if (id == kRelationA) return db.a();
  if (id == kRelationB) return db.b();
  assert(id == kRelationC);
  return db.c();
}

}  // namespace

ElasticityManager::ElasticityManager(Cluster& cluster) : cluster_(cluster) {}

void ElasticityManager::OnAddPe(PeId pe) {
  ProcessingElement& elem = cluster_.pe(pe);
  if (elem.member()) return;
  elem.set_member(true);
  added_.insert(pe);
  fill_.insert(pe);
  cluster_.metrics().RecordPeAdded();
  if (!elem.failed()) {
    cluster_.control().MarkUp(pe);
    // A joining PE boots idle with a cold buffer; publish that immediately
    // so strategies can place work on it without waiting a report round.
    cluster_.control().Report(pe, 0.0, elem.buffer().AvailablePages(), 0.0);
  }
  KickRebalance();
}

void ElasticityManager::OnDrainPe(PeId pe) {
  ProcessingElement& elem = cluster_.pe(pe);
  if (!elem.member()) return;
  elem.set_member(false);
  // Out of the planning views immediately: no new work lands here.  The
  // fragments it owns keep routing to it until each migration commits.
  cluster_.control().MarkDown(pe);
  draining_.insert(pe);
  fill_.erase(pe);
  KickRebalance();
}

void ElasticityManager::OnPeCrash(PeId pe) {
  if (active_ == nullptr) return;
  if (pe != active_->from && pe != active_->to && pe != active_->home) {
    return;
  }
  // Abort the in-flight move: cancellation destroys the migrator frame at
  // its suspension point, releasing the migration latch and the destination
  // staging reservation through the RAII guards before ApplyCrash wipes the
  // crashed PE's buffer.  A migrator that already ended (committed or
  // aborted on its own) keeps its outcome.
  if (cluster_.sched().Cancel(active_->work_id)) active_->aborted = true;
}

void ElasticityManager::OnPeRecovered(PeId pe) {
  if (draining_.count(pe) > 0) {
    // A crashed draining PE held on to its un-migrated fragments (queries
    // against them failed fast); resume vacating now that it is readable.
    KickRebalance();
    return;
  }
  if (cluster_.pe(pe).member() && added_.count(pe) > 0 &&
      OwnedPages(pe) == 0) {
    // An added PE that crashed before (or while) being filled: refill.
    fill_.insert(pe);
    KickRebalance();
  }
}

int64_t ElasticityManager::OwnedPages(PeId pe) {
  const Database& db = cluster_.db();
  int64_t pages = 0;
  for (const Relation* rel : {&db.a(), &db.b(), &db.c()}) {
    for (PeId home : rel->home_pes()) {
      if (cluster_.ownership().Owner(rel->id(), home) == pe) {
        pages += rel->PagesAt(home);
      }
    }
  }
  return pages;
}

std::vector<FragmentMove> ElasticityManager::PlanCurrent() {
  const Database& db = cluster_.db();
  std::vector<planner::Fragment> fragments;
  for (const Relation* rel : {&db.a(), &db.b(), &db.c()}) {
    for (PeId home : rel->home_pes()) {
      fragments.push_back({rel->id(), home,
                           cluster_.ownership().Owner(rel->id(), home),
                           rel->PagesAt(home)});
    }
  }
  std::vector<planner::PeState> pes(
      static_cast<size_t>(cluster_.num_pes()));
  for (PeId pe = 0; pe < cluster_.num_pes(); ++pe) {
    ProcessingElement& elem = cluster_.pe(pe);
    const bool alive = !elem.failed();
    const bool draining = draining_.count(pe) > 0;
    pes[pe].alive = alive;
    pes[pe].vacate = draining;
    pes[pe].receive = elem.member() && alive && !draining;
    pes[pe].fill = fill_.count(pe) > 0;
  }
  return planner::Plan(fragments, pes);
}

void ElasticityManager::FinishDrains() {
  for (auto it = draining_.begin(); it != draining_.end();) {
    if (OwnedPages(*it) == 0) {
      cluster_.metrics().RecordPeDrained();
      it = draining_.erase(it);
    } else {
      ++it;
    }
  }
}

void ElasticityManager::KickRebalance() {
  dirty_ = true;
  if (running_) return;
  running_ = true;
  cluster_.sched().Spawn(RunRebalance());
}

sim::Task<> ElasticityManager::RunRebalance() {
  while (true) {
    dirty_ = false;
    std::vector<FragmentMove> moves = PlanCurrent();
    if (moves.empty()) {
      FinishDrains();
      if (!dirty_) break;  // settled, and nothing arrived while planning
      continue;
    }
    for (const FragmentMove& mv : moves) {
      const bool committed = co_await ExecuteMove(mv);
      if (!committed) {
        // A crash invalidated the plan mid-flight: re-plan around the
        // current membership and liveness.
        cluster_.metrics().RecordMigrationReplanned();
        break;
      }
    }
    FinishDrains();
  }
  fill_.clear();
  running_ = false;
}

sim::Task<bool> ElasticityManager::ExecuteMove(FragmentMove move) {
  // The plan may be stale by the time this move runs (an earlier move
  // aborted, a PE crashed): verify endpoints and ownership first.
  if (cluster_.pe(move.from).failed() || cluster_.pe(move.to).failed() ||
      cluster_.ownership().Owner(move.relation_id, move.home) != move.from) {
    co_return false;
  }
  MigrationState st;
  st.home = move.home;
  st.from = move.from;
  st.to = move.to;
  active_ = &st;
  // A one-member group: the migrator ends for it whether it commits, aborts
  // or is cancelled by OnPeCrash.
  sim::TaskGroup migrator(cluster_.sched(),
                          sim::TraceTag(sim::TraceSubsystem::kLatch));
  st.work_id = migrator.Spawn(MigrateFragment(move, &st));
  co_await migrator.Wait();
  active_ = nullptr;
  if (st.aborted) {
    if (st.pages_done > 0) {
      // Batches already landed at the destination are orphaned: ownership
      // never flipped, so the donor copy stays authoritative.
      cluster_.metrics().RecordMigrationPagesDiscarded(st.pages_done);
    }
    co_return false;
  }
  co_return true;
}

sim::Task<> ElasticityManager::MigrateFragment(FragmentMove move,
                                               MigrationState* st) {
  Cluster& c = cluster_;
  const SystemConfig& cfg = c.config();
  const Relation& rel = RelationById(c.db(), move.relation_id);

  // Exclusive whole-fragment migration latch at the home PE's lock
  // manager.  tuple_id -(home+1) is negative, so it can never collide with
  // a page lock (page_no >= 0); a second migration of the same fragment
  // would serialize here.  Released by the guard on every exit path.
  const TxnId txn = c.NextTxnId();
  TxnLocksGuard latch(&c, txn);
  latch.AddPe(move.home);
  const bool granted = co_await c.pe(move.home).locks().Lock(
      txn, LockKey{move.relation_id, -(static_cast<int64_t>(move.home) + 1)},
      LockMode::kExclusive);
  if (!granted) {
    // Deadlock victim: impossible for a single-lock transaction, but fail
    // safe — the manager just re-plans.
    st->aborted = true;
    co_return;
  }

  const int64_t frag_pages = rel.PagesAt(move.home);
  const int64_t batch_pages =
      std::max<int64_t>(1, cfg.elastic.migration_batch_pages);
  const double page_bytes =
      static_cast<double>(cfg.buffer.page_size_bytes);
  // MB/s == bytes/ms * 1000: the cap in bytes of fragment per sim ms.
  const double bytes_per_ms = cfg.elastic.migration_bw_mbps * 1000.0;

  for (int64_t pos = 0; pos < frag_pages;) {
    if (c.pe(move.from).failed() || c.pe(move.to).failed()) {
      // Crash raced the batch boundary (OnPeCrash cancels mid-batch).
      st->aborted = true;
      break;
    }
    const int64_t len = std::min<int64_t>(batch_pages, frag_pages - pos);
    const SimTime batch_start = c.sched().Now();
    // Donor side: sequential striped read straight off the disks —
    // migration must not flush the donor's hot buffer either.
    co_await c.pe(move.from).disks().ReadStriped(rel.DataPage(move.home, pos),
                                                 len);
    co_await c.net().TransferBulk(
        move.from, move.to,
        len * static_cast<int64_t>(cfg.buffer.page_size_bytes));
    // Destination side: staged through a working-space reservation, written
    // to disk, never admitted to the page buffer (bufmgr/buffer_manager.h).
    co_await c.pe(move.to).buffer().IngestBatch(rel.DataPage(move.home, pos),
                                                static_cast<int>(len));
    // Migration bandwidth cap: the batch takes at least bytes / cap, so a
    // fast idle cluster still trickles the copy instead of bursting it.
    const double min_ms = static_cast<double>(len) * page_bytes / bytes_per_ms;
    const double elapsed = c.sched().Now() - batch_start;
    if (elapsed < min_ms) co_await c.sched().Delay(min_ms - elapsed);
    pos += len;
    st->pages_done = pos;  // committed batches only
  }

  if (!st->aborted) {
    // Commit: exactly one owner at every instant — queries planned before
    // this line route to the donor, queries planned after it to the new
    // owner; the donor copy is simply never read again.
    c.ownership().SetOwner(move.relation_id, move.home, move.to);
    c.metrics().RecordFragmentMigrated(frag_pages);
    latch.ReleaseNow();
  }
}

}  // namespace pdblb
