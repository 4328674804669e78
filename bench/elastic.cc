// Copyright 2026 the pdblb authors. MIT license.
//
// Elastic resize harness: online PE add/drain with deterministic fragment
// migration (engine/elastic.h), one series per resize scenario, with the
// multiprogramming level (2 and 4) as the x axis.  Scenarios:
//
//   * grow+1   a spare PE joins at t=2.0s and fills from the established
//              members (addpe@2000:pe8)
//   * grow+2   two spares join back to back (t=2.0s / t=2.5s); normal
//              horizon only
//   * drain-1  a member drains at t=2.0s: its fragments migrate out, then
//              it leaves the membership
//   * swap     a spare joins at t=2.0s and a member drains at t=2.5s — the
//              steady-state member count is unchanged but every fragment of
//              the drained PE crosses the wire
//
// Every membership event lands inside the measurement window of both the
// fast (6.5 s) and the normal (24 s) horizon.  A migration batch is an
// ordinary netsim message, so it competes with query traffic for the
// endpoint CPUs and is counted with it.  Relations are scaled down ~12x
// from the paper defaults: on the paper's 20 MIPS PEs a migration batch
// pays real controller, wire and endpoint-CPU time, and at full scale a
// fragment copy outlives the horizon.
//
// How long a resize takes.  One move runs at a time, and it copies its
// fragment in 64-page batches paced by nothing but their own work.  At
// --seed=42 nine in ten batches take 280-360 ms: the donor's striped read
// 72-124 ms, the transfer about 39 ms and the staged ingest at the
// destination 169 ms.  The ingest takes longer when its staging
// reservation queues behind joins in the destination's memory queue, up to
// 2.8 s at MPL 4.  drain-1 moves pe7's two fragments (500 + 250 pages, 12
// batches), which takes about 3.6 s when no batch waits; swap first fills
// pe8 with 500 pages (about 2.4 s) and only then vacates pe7.  So a drain
// can outlast the 4.5 s that --fast leaves after t=2.0s.  At --seed=42
// under --fast, grow+1 and drain-1/mpl2 complete (the drain at t=5.6s);
// drain-1/mpl4 moves 1 of its 2 fragments, because one batch's ingest
// takes 1.7 s queued for staging memory; and swap drains nothing at either
// MPL, since pe7's first fragment would commit at about 6.7 s.  At the
// normal horizon every point completes, the last (drain-1/mpl4) at
// t=10.0s.
//
// What to look for: at the normal horizon pes_added, pes_drained and
// migration_pages_moved match the scenario at both MPLs, and join RT
// degrades only transiently around the resize.  The sweep is a pure
// function of --seed: the CSV is bit-identical across --jobs and reruns
// (CI-enforced), like the chaos harness.
//
// Run with --report-json=BENCH_elastic.json for the CI artifact.

#include "bench/bench_common.h"

namespace {

using namespace pdblb;
using bench::ApplyHorizon;

struct Scenario {
  const char* name;
  int num_pes;  // members + held-out spares (addpe targets)
  std::vector<FaultEvent> events;
};

void Setup(bench::Figure& fig) {
  fig.SetTitle("Elastic — online PE add/drain vs. MPL (8 member PE)", "MPL");

  // 8 established members everywhere; pe8/pe9 are spares where present.
  // drain targets pe7 (a B-node for every num_pes used here), keeping both
  // home groups covered.
  const std::vector<Scenario> scenarios = {
      {"grow+1", 9, {{2000.0, FaultKind::kAddPe, 8}}},
      {"grow+2",
       10,
       {{2000.0, FaultKind::kAddPe, 8}, {2500.0, FaultKind::kAddPe, 9}}},
      {"drain-1", 8, {{2000.0, FaultKind::kDrainPe, 7}}},
      {"swap",
       9,
       {{2000.0, FaultKind::kAddPe, 8}, {2500.0, FaultKind::kDrainPe, 7}}},
  };

  for (const Scenario& sc : scenarios) {
    if (bench::FastMode() && std::string(sc.name) == "grow+2") continue;
    for (int mpl : {2, 4}) {
      SystemConfig cfg;
      cfg.num_pes = sc.num_pes;
      cfg.strategy = strategies::PsuOptLUM();
      cfg.multiprogramming_level = mpl;
      ApplyHorizon(cfg);
      cfg.relation_a.num_tuples = 20000;
      cfg.relation_b.num_tuples = 60000;
      cfg.relation_c.num_tuples = 40000;
      cfg.faults.events = sc.events;
      const std::string x = std::to_string(mpl);
      fig.AddPoint("elastic/" + std::string(sc.name) + "/mpl" + x, cfg,
                   sc.name, mpl, x);
    }
  }
}

}  // namespace

PDBLB_BENCH_MAIN(Setup)
