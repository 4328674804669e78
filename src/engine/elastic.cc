// Copyright 2026 the pdblb authors. MIT license.

#include "engine/elastic.h"

#include <algorithm>
#include <cassert>

#include "catalog/database.h"
#include "engine/cluster.h"
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

// Pages copied per migration batch: one donor read, one message and one
// staged ingest.  The batch is the unit of crash unwind: a crash mid-batch
// discards the pages already landed at the destination.
constexpr int64_t kMigrationBatchPages = 64;

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
  cluster_.SetPeState(pe, elem.failed(), /*member=*/true);
  added_.insert(pe);
  fill_.insert(pe);
  cluster_.metrics().RecordPeAdded();
  KickRebalance();
}

void ElasticityManager::OnDrainPe(PeId pe) {
  ProcessingElement& elem = cluster_.pe(pe);
  if (!elem.member()) return;
  // Out of the planning views immediately: no new work lands here.  The
  // fragments it owns keep routing to it until each migration commits.
  cluster_.SetPeState(pe, elem.failed(), /*member=*/false);
  draining_.insert(pe);
  fill_.erase(pe);
  KickRebalance();
}

void ElasticityManager::OnPeCrash(PeId pe) {
  if (active_ == nullptr) return;
  if (pe != active_->from && pe != active_->to) return;
  // Abort the in-flight move: cancellation destroys the migrator frame at
  // its suspension point, returning the destination staging reservation
  // through its RAII guard before ApplyCrash wipes the crashed PE's buffer.
  // A migrator that already ended (committed or aborted on its own) keeps
  // its outcome.
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
  const int64_t page_bytes = c.config().buffer.page_size_bytes;
  const Relation& rel = RelationById(c.db(), move.relation_id);
  const int64_t frag_pages = rel.PagesAt(move.home);

  for (int64_t pos = 0; pos < frag_pages;) {
    // ExecuteMove checked both endpoints before it spawned this migrator,
    // and a crash of either one cancels it in the same synchronous step
    // that sets the failed flag (ApplyCrash calls OnPeCrash), so the
    // migrator never resumes to find an endpoint down.
    assert(!c.pe(move.from).failed() && !c.pe(move.to).failed());
    const int64_t len = std::min(kMigrationBatchPages, frag_pages - pos);
    // Donor side: sequential striped read straight off the disks —
    // migration must not flush the donor's hot buffer either.
    co_await c.pe(move.from).disks().ReadStriped(rel.DataPage(move.home, pos),
                                                 len);
    co_await c.net().Transfer(move.from, move.to, len * page_bytes);
    // Destination side: staged through a working-space reservation, written
    // to disk, never admitted to the page buffer (bufmgr/buffer_manager.h).
    co_await c.pe(move.to).buffer().IngestBatch(rel.DataPage(move.home, pos),
                                                static_cast<int>(len));
    pos += len;
    st->pages_done = pos;  // committed batches only
  }

  // Commit: exactly one owner at every instant — queries planned before
  // this line route to the donor, queries planned after it to the new
  // owner; the donor copy is simply never read again.
  c.ownership().SetOwner(move.relation_id, move.home, move.to);
  c.metrics().RecordFragmentMigrated(frag_pages);
}

}  // namespace pdblb
