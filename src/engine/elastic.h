// Copyright 2026 the pdblb authors. MIT license.
//
// Elastic cluster resize: online PE add/drain with deterministic fragment
// migration.
//
// Membership events (addpe@ms:peN / drainpe@ms:peN in the fault grammar)
// flow from the FaultInjector into the ElasticityManager.  It changes the
// PE's membership at once, through Cluster::SetPeState (the one writer of a
// PE's up/down state and of the control node's view of it), and then
// rebalances fragment *ownership* in the background:
//
//  * planner::Plan — a pure, deterministic greedy planner (no RNG): a
//    draining PE's fragments are vacated largest-first to the least-loaded
//    members; a joining PE is filled from the most-loaded donors until one
//    more fragment would overshoot the per-PE page target.  Existing
//    members are never shuffled among themselves — a resize moves only the
//    fragments the resize requires.
//
//  * MigrateFragment — one coroutine per fragment move, one move at a time.
//    It copies the fragment in 64-page batches: donor ReadStriped ->
//    Network::Transfer (one message per batch, costed and counted like any
//    other) -> destination BufferManager::IngestBatch.  A batch takes as
//    long as those three steps do; nothing else paces the copy.  Only after
//    the last batch lands does the OwnershipMap flip, so queries route to
//    exactly one owner at every instant.  The move takes no lock: queries
//    read the ownership map when they plan, and only one move runs.
//
// Crash unwind: a crash of the donor or the destination mid-migration
// cancels the in-flight move; the coroutine frame unwinds through its RAII
// guard (the destination staging reservation is returned), batches already
// landed are discarded and counted, ownership stays with the donor, and the
// manager re-plans around the dead PE.  A crash of any other PE, the
// fragment's original home included, leaves the move alone: the copy reads
// only at the donor and writes only at the destination.  ExecuteMove waits
// on the migrator as the one member of a TaskGroup: a cancelled member ends
// for its group as a finished one does.
//
// Determinism: the planner draws no random numbers and iterates
// deterministically ordered state; migrations are ordinary calendar
// coroutines.  Without addpe/drainpe events the manager spawns nothing and
// OwnershipMap::Owner is the identity, so resize-free runs are byte-
// identical to a pre-elastic build.

#ifndef PDBLB_ENGINE_ELASTIC_H_
#define PDBLB_ENGINE_ELASTIC_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/units.h"
#include "simkern/task.h"

namespace pdblb {

class Cluster;

/// One planned fragment move: the fragment of `relation_id` homed at
/// `home`, currently owned by `from`, is to be migrated to `to`.
struct FragmentMove {
  int32_t relation_id = 0;
  PeId home = -1;
  PeId from = -1;
  PeId to = -1;
  int64_t pages = 0;
};

/// Declustering-aware rebalance planning, pure and deterministic (directly
/// unit-tested; the ElasticityManager feeds it live cluster state).
namespace planner {

/// One fragment as the planner sees it.
struct Fragment {
  int32_t relation_id = 0;
  PeId home = -1;
  PeId owner = -1;  ///< current owner (home until a migration committed)
  int64_t pages = 0;
};

/// One PE as the planner sees it.
struct PeState {
  bool receive = false;  ///< member, alive, not draining: may gain fragments
  bool alive = false;    ///< not failed: its fragments can be read (donor)
  bool vacate = false;   ///< draining: must lose every owned fragment
  bool fill = false;     ///< freshly added: fill up to the per-PE target
};

/// Plans the moves for the current state.  Two phases:
///  1. vacate: every fragment owned by an alive `vacate` PE goes to the
///     least-loaded `receive` PE (largest fragment first; ties by relation
///     id then home id; destination ties by lowest PE id);
///  2. fill: each `fill` PE (ascending id) takes the largest fragment from
///     the most-loaded non-fill `receive` PE as long as the move strictly
///     narrows the donor/newcomer gap (donor stays at least as loaded).
/// Fragments owned by failed PEs are skipped (re-planned after recovery).
/// Returns moves in execution order; empty when the state is settled.
std::vector<FragmentMove> Plan(const std::vector<Fragment>& fragments,
                               const std::vector<PeState>& pes);

}  // namespace planner

/// Owns the membership state machine and the migration queue.  Constructed
/// by the Cluster only when SystemConfig::faults.ElasticEnabled(); all
/// hooks are invoked by the FaultInjector.
class ElasticityManager {
 public:
  explicit ElasticityManager(Cluster& cluster);

  // --- membership events (FaultInjector::ApplyAt) --------------------------
  /// addpe: the spare joins the planning views immediately and is filled by
  /// a background rebalance.  No-op if already a member.
  void OnAddPe(PeId pe);
  /// drainpe: the PE leaves the planning views immediately (no new work is
  /// placed on it); its fragments keep routing to it until each one's
  /// migration commits.  No-op if not a member.
  void OnDrainPe(PeId pe);

  // --- crash/recovery hooks (FaultInjector::ApplyCrash/ApplyRecovery) -----
  /// Aborts the in-flight migration if the crashed PE is its donor or
  /// destination; the cancelled frame returns its staging reservation and
  /// the manager re-plans.  Call before BufferManager::OnCrash so the
  /// staging reservation is gone by the time the buffer asserts a clean
  /// slate.
  void OnPeCrash(PeId pe);
  /// A recovered draining PE resumes vacating its remaining fragments.
  void OnPeRecovered(PeId pe);

 private:
  struct MigrationState {
    PeId from = -1;
    PeId to = -1;
    uint64_t work_id = 0;  ///< spawn id of the migrator (its group's member)
    bool aborted = false;
    int64_t pages_done = 0;  ///< committed batches (discarded on abort)
  };

  /// Snapshots live cluster state into planner inputs and plans.
  std::vector<FragmentMove> PlanCurrent();
  /// Pages currently owned by `pe` across the declustered relations.
  int64_t OwnedPages(PeId pe);
  /// Records completed drains (a draining PE that owns nothing is done).
  void FinishDrains();
  /// Starts the rebalance coroutine if it is not already running.
  void KickRebalance();
  /// Sequential rebalance driver: plan, migrate each move, re-plan until
  /// the plan comes back empty (one migration in flight at a time).
  sim::Task<> RunRebalance();
  /// Runs one move start-to-commit; false when aborted (re-plan needed).
  sim::Task<bool> ExecuteMove(FragmentMove move);
  /// The migrator coroutine (ExecuteMove waits on it as the one member of a
  /// TaskGroup; OnPeCrash cancels it by its spawn id).
  sim::Task<> MigrateFragment(FragmentMove move, MigrationState* st);

  Cluster& cluster_;
  std::set<PeId> draining_;
  std::set<PeId> added_;     ///< every PE ever added (refill after a crash)
  std::set<PeId> fill_;      ///< added PEs not yet filled to target
  MigrationState* active_ = nullptr;
  bool running_ = false;
  bool dirty_ = false;  ///< membership changed while a rebalance ran
};

}  // namespace pdblb

#endif  // PDBLB_ENGINE_ELASTIC_H_
