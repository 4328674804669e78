// Copyright 2026 the pdblb authors. MIT license.
//
// Elastic cluster resize suite: the pure rebalance planner, the
// addpe/drainpe fault-grammar clauses (including the quoted-clause +
// byte-offset parse errors), the membership-timeline validation, end-to-end
// fragment migration with conservation checks, mid-migration crash unwind,
// the one writer of a PE's up/down state under crash, recovery and resize,
// and the determinism of resized runs across reruns.  The binary runs under
// leak detection, so every aborted migration doubles as a zero-leaked-frames
// check.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/config.h"
#include "engine/cluster.h"
#include "engine/elastic.h"
#include "expect_quiescent.h"
#include "run_at.h"

namespace pdblb {
namespace {

// Relations scaled so a fragment copy (donor controller time, endpoint CPU
// on the paper's 20 MIPS PEs, wire and disk latency) completes well inside
// the measurement window — same rationale as bench/elastic.cc.
SystemConfig ElasticBase(int num_pes) {
  SystemConfig cfg;
  cfg.num_pes = num_pes;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 8000.0;
  cfg.relation_a.num_tuples = 20000;
  cfg.relation_b.num_tuples = 60000;
  cfg.relation_c.num_tuples = 40000;
  return cfg;
}

// ------------------------------------------------------------ planner unit

TEST(ElasticPlannerTest, VacatesDrainingPeLargestFirstToLeastLoaded) {
  // pe0 drains and owns two fragments; pe1/pe2 receive, pe2 lighter.
  std::vector<planner::Fragment> frags = {
      {1, 0, 0, 100}, {2, 0, 0, 40}, {1, 1, 1, 80}, {1, 2, 2, 30}};
  std::vector<planner::PeState> pes(3);
  pes[0] = {.receive = false, .alive = true, .vacate = true, .fill = false};
  pes[1] = {.receive = true, .alive = true, .vacate = false, .fill = false};
  pes[2] = {.receive = true, .alive = true, .vacate = false, .fill = false};
  std::vector<FragmentMove> moves = planner::Plan(frags, pes);
  ASSERT_EQ(moves.size(), 2u);
  // Largest fragment (100 pages) first, to the least-loaded receiver pe2.
  EXPECT_EQ(moves[0].relation_id, 1);
  EXPECT_EQ(moves[0].home, 0);
  EXPECT_EQ(moves[0].from, 0);
  EXPECT_EQ(moves[0].to, 2);
  EXPECT_EQ(moves[0].pages, 100);
  // Then the 40-page fragment; pe1 (80) is now lighter than pe2 (130).
  EXPECT_EQ(moves[1].relation_id, 2);
  EXPECT_EQ(moves[1].to, 1);
}

TEST(ElasticPlannerTest, FillsNewcomerWithoutShufflingMembers) {
  // Established members pe0 (150 pages) and pe1 (90); pe2 joins empty.
  std::vector<planner::Fragment> frags = {
      {1, 0, 0, 100}, {2, 0, 0, 50}, {1, 1, 1, 60}, {2, 1, 1, 30}};
  std::vector<planner::PeState> pes(3);
  pes[0] = {.receive = true, .alive = true, .vacate = false, .fill = false};
  pes[1] = {.receive = true, .alive = true, .vacate = false, .fill = false};
  pes[2] = {.receive = true, .alive = true, .vacate = false, .fill = true};
  std::vector<FragmentMove> moves = planner::Plan(frags, pes);
  // pe0 (most loaded, 150) donates its 100-page fragment (100 < gap 150).
  // Afterwards the most-loaded donor is pe1 (90) with gap 90 - 100 < 0, so
  // no further move narrows the gap: exactly one move, and established
  // members are never shuffled among themselves.
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 0);
  EXPECT_EQ(moves[0].to, 2);
  EXPECT_EQ(moves[0].pages, 100);
}

TEST(ElasticPlannerTest, SkipsFragmentsOwnedByFailedPes) {
  // The draining pe0 is also dead: its fragments cannot be read, so the
  // plan must leave them alone (re-planned after recovery).
  std::vector<planner::Fragment> frags = {{1, 0, 0, 100}, {1, 1, 1, 80}};
  std::vector<planner::PeState> pes(2);
  pes[0] = {.receive = false, .alive = false, .vacate = true, .fill = false};
  pes[1] = {.receive = true, .alive = true, .vacate = false, .fill = false};
  EXPECT_TRUE(planner::Plan(frags, pes).empty());
}

TEST(ElasticPlannerTest, SettledStateProducesNoMoves) {
  std::vector<planner::Fragment> frags = {{1, 0, 0, 100}, {1, 1, 1, 100}};
  std::vector<planner::PeState> pes(2);
  pes[0] = {.receive = true, .alive = true, .vacate = false, .fill = false};
  pes[1] = {.receive = true, .alive = true, .vacate = false, .fill = false};
  EXPECT_TRUE(planner::Plan(frags, pes).empty());
}

// --------------------------------------------------- grammar + validation

TEST(ElasticParseTest, AddAndDrainClausesRoundTrip) {
  FaultConfig fc;
  Status st = ParseFaultSpec("addpe@2000:pe8;drainpe@3500:pe7", &fc);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(fc.events.size(), 2u);
  EXPECT_EQ(fc.events[0].kind, FaultKind::kAddPe);
  EXPECT_EQ(fc.events[0].pe, 8);
  EXPECT_DOUBLE_EQ(fc.events[0].at_ms, 2000.0);
  EXPECT_EQ(fc.events[1].kind, FaultKind::kDrainPe);
  EXPECT_EQ(fc.events[1].pe, 7);
  EXPECT_TRUE(fc.ElasticEnabled());

  FaultConfig off;
  ASSERT_TRUE(ParseFaultSpec("crash@2000:pe1", &off).ok());
  EXPECT_FALSE(off.ElasticEnabled());
}

// Satellite: parse errors quote the offending clause verbatim and name its
// starting byte, so a typo in a long composed spec is found without
// counting semicolons.
TEST(ElasticParseTest, ErrorsQuoteOffendingClauseAndByteOffset) {
  FaultConfig sink;
  // "addpe@2000:pe8;" is 15 bytes, so the bad clause starts at byte 15.
  Status st = ParseFaultSpec("addpe@2000:pe8;meltpe@3000:pe7", &sink);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("in clause \"meltpe@3000:pe7\""),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("(byte 15)"), std::string::npos)
      << st.ToString();

  // Key-value clause errors carry the same quoting.
  Status st2 = ParseFaultSpec("rate=0.5;bogus=1", &sink);
  ASSERT_FALSE(st2.ok());
  EXPECT_NE(st2.ToString().find("in clause \"bogus=1\""), std::string::npos)
      << st2.ToString();
  EXPECT_NE(st2.ToString().find("(byte 9)"), std::string::npos)
      << st2.ToString();

  // A malformed endpoint in the first clause points at byte 0.
  Status st3 = ParseFaultSpec("drainpe@2000:7", &sink);
  ASSERT_FALSE(st3.ok());
  EXPECT_NE(st3.ToString().find("in clause \"drainpe@2000:7\""),
            std::string::npos)
      << st3.ToString();
  EXPECT_NE(st3.ToString().find("(byte 0)"), std::string::npos)
      << st3.ToString();
}

TEST(ElasticValidateTest, MembershipTimelineIsChecked) {
  // Draining a spare before its addpe fires is rejected.
  SystemConfig early = ElasticBase(9);
  early.faults.events = {{1000.0, FaultKind::kDrainPe, 8},
                         {5000.0, FaultKind::kAddPe, 8}};
  EXPECT_FALSE(early.Validate().ok());

  // Draining below two members is rejected.
  SystemConfig two = ElasticBase(2);
  two.faults.events = {{1000.0, FaultKind::kDrainPe, 1}};
  EXPECT_FALSE(two.Validate().ok());

  // A PE may be the target of at most one addpe.
  SystemConfig dup = ElasticBase(9);
  dup.faults.events = {{1000.0, FaultKind::kAddPe, 8},
                       {2000.0, FaultKind::kAddPe, 8}};
  EXPECT_FALSE(dup.Validate().ok());

  // The well-ordered version of the same membership events passes.
  SystemConfig ok = ElasticBase(9);
  ok.faults.events = {{1000.0, FaultKind::kAddPe, 8},
                      {2000.0, FaultKind::kDrainPe, 8}};
  EXPECT_TRUE(ok.Validate().ok()) << ok.Validate().ToString();
}

// ------------------------------------------------------------- end to end

// Draining a PE migrates every fragment it owns, exactly once, with no page
// lost or duplicated: the final ownership map routes each of the drained
// PE's fragments to exactly one live member, and the pages-moved counter
// equals the catalog size of the moved fragments.
TEST(ElasticTest, DrainMigratesEveryFragmentWithConservation) {
  SystemConfig cfg = ElasticBase(8);
  cfg.faults.events = {{2000.0, FaultKind::kDrainPe, 7}};
  Cluster c(cfg);
  const int64_t expected_pages =
      c.db().b().PagesAt(7) + c.db().c().PagesAt(7);
  ASSERT_GT(expected_pages, 0);
  MetricsReport r = c.Run();
  EXPECT_EQ(r.pes_drained, 1);
  EXPECT_EQ(r.fragments_migrated, 2) << "pe7 owns a B and a C fragment";
  EXPECT_EQ(r.migration_pages_moved, expected_pages);
  EXPECT_EQ(r.migration_pages_discarded, 0);
  EXPECT_EQ(r.migrations_replanned, 0);
  EXPECT_GT(r.joins_completed, 0) << "queries must survive the resize";

  // Conservation over the final ownership map: the map is keyed by
  // (relation, home) so each fragment has exactly one owner; nothing still
  // routes to the drained PE, and the moved entries cover exactly the
  // drained fragments.
  EXPECT_EQ(c.ownership().MovedCount(), 2u);
  int64_t moved_catalog_pages = 0;
  for (const auto& [key, owner] : c.ownership().moves()) {
    const auto& [relation_id, home] = key;
    EXPECT_EQ(home, 7) << "only pe7's fragments may have moved";
    EXPECT_NE(owner, 7);
    EXPECT_FALSE(c.pe(owner).failed());
    EXPECT_TRUE(c.pe(owner).member());
    const Relation& rel = relation_id == kRelationB ? c.db().b() : c.db().c();
    EXPECT_EQ(rel.id(), relation_id);
    moved_catalog_pages += rel.PagesAt(home);
  }
  EXPECT_EQ(moved_catalog_pages, expected_pages);
  for (PeId home : c.db().b().home_pes()) {
    EXPECT_NE(c.OwnerOf(c.db().b().id(), home), 7);
  }
}

TEST(ElasticTest, AddedSpareIsFilledAndServesQueries) {
  SystemConfig cfg = ElasticBase(9);
  cfg.faults.events = {{2000.0, FaultKind::kAddPe, 8}};
  Cluster c(cfg);
  MetricsReport r = c.Run();
  EXPECT_EQ(r.pes_added, 1);
  EXPECT_GE(r.fragments_migrated, 1) << "the newcomer never got a fragment";
  EXPECT_GT(r.migration_pages_moved, 0);
  EXPECT_EQ(r.migration_pages_discarded, 0);
  EXPECT_GT(r.joins_completed, 0);
  // Every moved fragment landed on the newcomer: a fill plan never shuffles
  // the established members among themselves.
  EXPECT_GT(c.ownership().MovedCount(), 0u);
  for (const auto& [key, owner] : c.ownership().moves()) {
    EXPECT_EQ(owner, 8);
  }
}

// Mid-migration crash unwind: the draining donor dies while its fragment is
// in flight.  The aborted migrator must return the destination staging
// reservation (leak detection and the destination buffer's crash-wipe
// asserts catch a leak), batches already landed are discarded rather than
// committed, and after the PE recovers the drain is re-planned and runs to
// completion.
TEST(ElasticTest, MidMigrationCrashUnwindsDiscardsAndReplans) {
  SystemConfig cfg = ElasticBase(8);
  cfg.faults.events = {{2000.0, FaultKind::kDrainPe, 7},
                       {2500.0, FaultKind::kCrash, 7},
                       {3200.0, FaultKind::kRecover, 7}};
  Cluster c(cfg);
  MetricsReport r = c.Run();
  EXPECT_EQ(r.pe_crashes, 1);
  EXPECT_EQ(r.pe_recoveries, 1);
  EXPECT_GE(r.migrations_replanned, 1) << "the crash must abort the move";
  EXPECT_GT(r.migration_pages_discarded, 0)
      << "batches landed before the crash must be discarded, not committed";
  EXPECT_EQ(r.pes_drained, 1) << "the drain must finish after recovery";
  EXPECT_EQ(c.ownership().MovedCount(), 2u);
  for (const auto& [key, owner] : c.ownership().moves()) {
    EXPECT_NE(owner, 7);
  }
  // Conservation still holds: discarded pages never enter the moved total —
  // each fragment is counted exactly once, at its catalog size.
  EXPECT_EQ(r.migration_pages_moved,
            c.db().b().PagesAt(7) + c.db().c().PagesAt(7));
  ExpectQuiescent(c);
}

// A spare that bounces (crash + recover) before its addpe must stay out of
// the planning views until the addpe fires: a recovered non-member is not
// up, and the later join still fills it.
TEST(ElasticTest, CrashedSpareStaysOutUntilAdded) {
  SystemConfig cfg = ElasticBase(9);
  cfg.faults.events = {{1200.0, FaultKind::kCrash, 8},
                       {1600.0, FaultKind::kRecover, 8},
                       {2500.0, FaultKind::kAddPe, 8}};
  Cluster c(cfg);
  MetricsReport r = c.Run();
  EXPECT_EQ(r.pes_added, 1);
  EXPECT_GE(r.fragments_migrated, 1);
  EXPECT_GT(r.joins_completed, 0);
}

// ------------------------------------------------------ one state writer

// Cluster::SetPeState is the one writer of a PE's failed and member flags.
// Through every order of crash, recover, addpe and drainpe, the control
// node's alive view must stay member && !failed for every PE, and a PE that
// has just come up must report idle: CPU 0, disk 0 and its buffer's free
// pages.  Each script runs on a 9-PE cluster with spare pe8 and checks just
// after each of its events.  Adaptive feedback is off, so no plan edits the
// view between an event and its check.
TEST(ElasticTest, ControlViewFollowsTheOneStateWriter) {
  struct Step {
    FaultEvent event;
    bool alive_after;  ///< the control node's view of event.pe afterwards
  };
  struct Script {
    const char* what;
    std::vector<Step> steps;
  };
  // Off the 1000 ms report rounds, so no report lands between an event and
  // its check.
  const std::vector<Script> scripts = {
      {"a spare crashes before its addpe and recovers after it",
       {{{1300.0, FaultKind::kCrash, 8}, false},
        {{1700.0, FaultKind::kAddPe, 8}, false},
        {{2300.0, FaultKind::kRecover, 8}, true}}},
      {"a draining PE crashes and recovers",
       {{{1300.0, FaultKind::kAddPe, 8}, true},
        {{1700.0, FaultKind::kDrainPe, 7}, false},
        {{2300.0, FaultKind::kCrash, 7}, false},
        {{2700.0, FaultKind::kRecover, 7}, false}}},
      {"a member crashes while a spare joins",
       {{{1300.0, FaultKind::kAddPe, 8}, true},
        {{1500.0, FaultKind::kCrash, 0}, false},
        {{2300.0, FaultKind::kRecover, 0}, true}}},
  };
  for (const Script& script : scripts) {
    SCOPED_TRACE(script.what);
    SystemConfig cfg = ElasticBase(9);
    cfg.adaptive_selection_feedback = false;
    for (const Step& step : script.steps) {
      cfg.faults.events.push_back(step.event);
    }
    Cluster c(cfg);
    int checks = 0;
    for (const Step& step : script.steps) {
      sim::RunAt(c.sched(), step.event.at_ms + 1e-3, [&c, &checks, step] {
        SCOPED_TRACE(::testing::Message() << "after the event at "
                                          << step.event.at_ms << " ms");
        ++checks;
        int up = 0;
        for (PeId pe = 0; pe < c.num_pes(); ++pe) {
          const bool want = c.pe(pe).member() && !c.pe(pe).failed();
          EXPECT_EQ(c.control().IsAlive(pe), want) << "pe" << pe;
          up += want ? 1 : 0;
        }
        EXPECT_EQ(c.control().AliveCount(), up);
        const PeId pe = step.event.pe;
        EXPECT_EQ(c.control().IsAlive(pe), step.alive_after) << "pe" << pe;
        const bool came_up = step.alive_after &&
                             (step.event.kind == FaultKind::kRecover ||
                              step.event.kind == FaultKind::kAddPe);
        if (came_up) {
          const PeLoadInfo& info = c.control().info(pe);
          EXPECT_EQ(info.cpu_util, 0.0);
          EXPECT_EQ(info.disk_util, 0.0);
          EXPECT_EQ(info.free_memory_pages,
                    c.pe(pe).buffer().AvailablePages());
        }
      });
    }
    MetricsReport r = c.Run();
    EXPECT_EQ(checks, static_cast<int>(script.steps.size()));
    EXPECT_EQ(r.pes_added, 1);
    ExpectQuiescent(c);
  }
}

// ----------------------------------------------------------- determinism

TEST(ElasticTest, ResizedRunsAreIdenticalAcrossReruns) {
  SystemConfig base = ElasticBase(9);
  base.faults.events = {{2000.0, FaultKind::kAddPe, 8},
                        {3000.0, FaultKind::kDrainPe, 7}};
  MetricsReport r1 = Cluster(base).Run();
  MetricsReport r2 = Cluster(base).Run();
  EXPECT_EQ(r1.kernel_events, r2.kernel_events);
  EXPECT_EQ(r1.fragments_migrated, r2.fragments_migrated);
  EXPECT_EQ(r1.migration_pages_moved, r2.migration_pages_moved);
  EXPECT_EQ(r1.joins_completed, r2.joins_completed);
  EXPECT_DOUBLE_EQ(r1.join_rt_ms, r2.join_rt_ms);
}

// Satellite: a crashed PE recovers and rejoins the planning views while the
// overload state machine is pinned in `shedding` by sustained 4x overload.
// The rejoin (back in the planning views with an idle report) must compose
// with active shedding without starving admission, and the composition
// stays deterministic.
TEST(ElasticTest, RecoveryWhileSheddingRejoinsCleanly) {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.multiprogramming_level = 1;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 8000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 2.0;
  cfg.overload.enabled = true;
  cfg.overload.degrade_queue_threshold = 0.5;
  cfg.overload.shed_queue_threshold = 1.0;
  cfg.overload.exit_queue_threshold = 0.25;
  cfg.overload.enter_rounds = 1;
  cfg.control_report_interval_ms = 500.0;
  cfg.faults.events = {{3000.0, FaultKind::kCrash, 2},
                       {5000.0, FaultKind::kRecover, 2}};
  MetricsReport r1 = Cluster(cfg).Run();
  EXPECT_GT(r1.queries_shed, 0) << "4x overload never reached shedding";
  EXPECT_EQ(r1.pe_crashes, 1);
  EXPECT_EQ(r1.pe_recoveries, 1);
  EXPECT_GT(r1.joins_completed, 0)
      << "the recovered PE must serve work again";
  MetricsReport r2 = Cluster(cfg).Run();
  EXPECT_EQ(r1.queries_shed, r2.queries_shed);
  EXPECT_EQ(r1.joins_completed, r2.joins_completed);
  EXPECT_EQ(r1.kernel_events, r2.kernel_events);
}

}  // namespace
}  // namespace pdblb
