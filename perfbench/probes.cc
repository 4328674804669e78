// Copyright 2026 the pdblb authors. MIT license.
//
// Standalone layer probes: each one drives a single layer's public API on
// a private sim::Scheduler with a fixed operation mix, sized from the
// workload's SystemConfig, and reports host ns and heap allocations per
// operation.  A probe first runs a warm-up share of its operations (rings,
// caches and the frame arena reach steady state), then times the rest.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bufmgr/buffer_manager.h"
#include "core/control_node.h"
#include "core/cost_model.h"
#include "core/strategies.h"
#include "iosim/disk.h"
#include "lockmgr/lock_manager.h"
#include "netsim/network.h"
#include "perfbench.h"
#include "simkern/resource.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace perfbench {
namespace {

using pdblb::AccessPattern;
using pdblb::BufferManager;
using pdblb::DiskArray;
using pdblb::LockKey;
using pdblb::LockManager;
using pdblb::LockMode;
using pdblb::PageKey;
using pdblb::SystemConfig;
using pdblb::TxnId;
namespace sim = pdblb::sim;

/// Host cost of a probe's measured phase.
struct Cost {
  double wall_s = 0.0;
  uint64_t ops = 0;
  uint64_t allocs = 0;

  double NsPerOp() const {
    return ops == 0 ? 0.0 : wall_s * 1e9 / static_cast<double>(ops);
  }
  double AllocsPerOp() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(allocs) / static_cast<double>(ops);
  }
};

/// Advances `sched` in `step`-ms slices until `ops()` grew by `target`.
template <typename OpsFn>
Cost RunOps(sim::Scheduler& sched, OpsFn ops, uint64_t target,
            pdblb::SimTime step) {
  const uint64_t ops0 = ops();
  const uint64_t allocs0 = AllocCount();
  const double t0 = NowSeconds();
  while (ops() - ops0 < target && sched.pending_events() > 0) {
    sched.RunUntil(sched.Now() + step);
  }
  return Cost{NowSeconds() - t0, ops() - ops0, AllocCount() - allocs0};
}

/// Warm-up share (untimed) followed by the measured phase.
template <typename OpsFn>
Cost WarmThenRun(sim::Scheduler& sched, OpsFn ops, uint64_t target,
                 pdblb::SimTime step) {
  RunOps(sched, ops, target / 10, step);
  return RunOps(sched, ops, target, step);
}

// Debit-credit page draw: a hot share of accesses goes to the first
// hot_pages pages (branch/teller), the rest is uniform over the fragment.
int64_t OltpPage(sim::Rng& rng, const pdblb::OltpConfig& oltp,
                 int64_t frag_pages) {
  if (rng.Uniform() < oltp.hot_access_fraction) {
    return rng.UniformInt(0, std::min(oltp.hot_pages, frag_pages) - 1);
  }
  return rng.UniformInt(0, frag_pages - 1);
}

int64_t OltpFragmentPages(const SystemConfig& cfg) {
  return std::max<int64_t>(
      1, cfg.oltp.tuples_per_node / std::max(1, cfg.oltp.blocking_factor));
}

constexpr int32_t kOltpRelation = 7;

// --- simkern: delay storm ----------------------------------------------------

sim::Task<> TimerLoop(sim::Scheduler& sched, pdblb::SimTime period) {
  for (;;) co_await sched.Delay(period);
}

Cost ProbeScheduler() {
  sim::Scheduler sched;
  for (int i = 0; i < 64; ++i) sched.Spawn(TimerLoop(sched, 1.0 + 0.013 * i));
  return WarmThenRun(
      sched, [&] { return sched.events_processed(); }, 3'000'000, 1000.0);
}

// --- iosim: DiskArray ----------------------------------------------------------

// Scan mix: a striped range read, four sequential single-page reads and a
// temp-file batch write per round (scan + PPHJ spill of the join workloads).
sim::Task<> ScanIoStream(DiskArray& disks, int stream, uint64_t* pages) {
  const int32_t rel = 1 + stream;
  const int32_t temp_rel = -1 - stream;
  int64_t off = 0;
  int64_t temp_off = 0;
  for (;;) {
    co_await disks.ReadStriped(PageKey{rel, off}, 64);
    off += 64;
    for (int k = 0; k < 4; ++k) {
      co_await disks.Read(PageKey{rel, off++}, AccessPattern::kSequential);
    }
    co_await disks.WriteBatch(PageKey{temp_rel, temp_off}, 8);
    temp_off += 8;
    *pages += 64 + 4 + 8;
  }
}

// OLTP mix: four random point reads with the debit-credit hot set, then a
// commit log write.
sim::Task<> OltpIoStream(DiskArray& disks, const SystemConfig& cfg,
                         sim::Rng rng, uint64_t* pages) {
  const int64_t frag = OltpFragmentPages(cfg);
  for (;;) {
    for (int k = 0; k < cfg.oltp.tuple_accesses; ++k) {
      co_await disks.Read(PageKey{kOltpRelation, OltpPage(rng, cfg.oltp, frag)},
                          AccessPattern::kRandom);
    }
    co_await disks.LogWrite();
    *pages += static_cast<uint64_t>(cfg.oltp.tuple_accesses) + 1;
  }
}

Cost ProbeDisks(const SystemConfig& cfg, ProbeMix mix) {
  sim::Scheduler sched;
  sim::Resource cpu(sched, cfg.cpus_per_pe, "probe.cpu");
  DiskArray disks(sched, cfg.disk, cfg.costs, cfg.mips_per_pe, cpu,
                  "probe");
  uint64_t pages = 0;
  sim::Rng rng(cfg.seed);
  for (int s = 0; s < 16; ++s) {
    if (mix == ProbeMix::kScan) {
      sched.Spawn(ScanIoStream(disks, s, &pages));
    } else {
      sched.Spawn(OltpIoStream(disks, cfg, rng.Fork(s), &pages));
    }
  }
  return WarmThenRun(sched, [&] { return pages; }, 300'000, 1000.0);
}

// --- bufmgr: BufferManager -------------------------------------------------

// Scan mix: 32-page range fetches over a private relation plus one random
// fetch from a small shared relation per round.
sim::Task<> ScanFetchStream(BufferManager& buf, int stream, sim::Rng rng,
                            uint64_t* fetches) {
  const int32_t rel = 1 + stream;
  int64_t off = 0;
  for (;;) {
    co_await buf.FetchRange(PageKey{rel, off}, 32);
    off += 32;
    co_await buf.Fetch(PageKey{100, rng.UniformInt(0, 199)},
                       AccessPattern::kRandom);
    *fetches += 33;
  }
}

// OLTP mix: debit-credit point fetches (dirtied, so evictions write back)
// with an occasional short range scan.
sim::Task<> OltpFetchStream(BufferManager& buf, const SystemConfig& cfg,
                            int stream, sim::Rng rng, uint64_t* fetches) {
  const int64_t frag = OltpFragmentPages(cfg);
  for (int64_t round = 0;; ++round) {
    for (int k = 0; k < cfg.oltp.tuple_accesses; ++k) {
      PageKey page{kOltpRelation, OltpPage(rng, cfg.oltp, frag)};
      co_await buf.Fetch(page, AccessPattern::kRandom, /*priority_oltp=*/true);
      buf.MarkDirty(page);
    }
    *fetches += static_cast<uint64_t>(cfg.oltp.tuple_accesses);
    if (round % 16 == 0) {
      co_await buf.FetchRange(PageKey{1 + stream, round * 16}, 16);
      *fetches += 16;
    }
  }
}

Cost ProbeBuffer(const SystemConfig& cfg, ProbeMix mix) {
  sim::Scheduler sched;
  sim::Resource cpu(sched, cfg.cpus_per_pe, "probe.cpu");
  DiskArray disks(sched, cfg.disk, cfg.costs, cfg.mips_per_pe, cpu,
                  "probe");
  BufferManager buf(sched, cfg.buffer, disks, "probe.buf");
  uint64_t fetches = 0;
  sim::Rng rng(cfg.seed);
  for (int s = 0; s < 8; ++s) {
    if (mix == ProbeMix::kScan) {
      sched.Spawn(ScanFetchStream(buf, s, rng.Fork(s), &fetches));
    } else {
      sched.Spawn(OltpFetchStream(buf, cfg, s, rng.Fork(s), &fetches));
    }
  }
  return WarmThenRun(sched, [&] { return fetches; }, 300'000, 1000.0);
}

// --- lockmgr: LockManager --------------------------------------------------

// One debit-credit transaction after another: exclusive locks on
// tuple_accesses tuples (sorted, so the probe cannot deadlock), a short
// think time per access, then ReleaseAll at commit.
sim::Task<> LockTxnLoop(sim::Scheduler& sched, LockManager& locks,
                        const SystemConfig& cfg, sim::Rng rng,
                        TxnId* next_txn, uint64_t* granted) {
  const int64_t frag = OltpFragmentPages(cfg);
  const int bf = std::max(1, cfg.oltp.blocking_factor);
  std::vector<int64_t> tuples;
  for (;;) {
    const TxnId txn = (*next_txn)++;
    tuples.clear();
    for (int k = 0; k < cfg.oltp.tuple_accesses; ++k) {
      tuples.push_back(OltpPage(rng, cfg.oltp, frag) * bf +
                       rng.UniformInt(0, bf - 1));
    }
    std::sort(tuples.begin(), tuples.end());
    for (int64_t tuple : tuples) {
      if (co_await locks.Lock(txn, LockKey{kOltpRelation, tuple},
                              LockMode::kExclusive)) {
        ++*granted;
      }
      co_await sched.Delay(1.0);
    }
    co_await sched.Delay(2.0);
    locks.ReleaseAll(txn);
  }
}

Cost ProbeLocks(const SystemConfig& cfg) {
  sim::Scheduler sched;
  LockManager locks(sched);
  uint64_t granted = 0;
  TxnId next_txn = 1;
  sim::Rng rng(cfg.seed);
  for (int t = 0; t < 32; ++t) {
    sched.Spawn(LockTxnLoop(sched, locks, cfg, rng.Fork(t), &next_txn,
                            &granted));
  }
  return WarmThenRun(sched, [&] { return granted; }, 300'000, 1000.0);
}

sim::Task<> LockOnce(LockManager& locks, TxnId txn, LockKey key) {
  (void)co_await locks.Lock(txn, key, LockMode::kExclusive);
}

// Deadlock-victim path: a blocker holds a key, eight waiters queue behind
// it, and each waiter is aborted.  The table also holds 64 unrelated locks,
// about what one OLTP node of the mixed workload holds at a time, since
// AbortWaiter's cost depends on the table it searches.
Cost ProbeLockAborts() {
  sim::Scheduler sched;
  LockManager locks(sched);
  for (TxnId h = 1; h <= 16; ++h) {
    for (int k = 0; k < 4; ++k) {
      sched.Spawn(LockOnce(locks, h, LockKey{kOltpRelation, h * 4 + k}));
    }
  }
  sched.Run();
  constexpr int kWaiters = 8;
  Cost cost;
  const uint64_t allocs0 = AllocCount();
  for (int64_t round = 0; round < 4000; ++round) {
    const TxnId blocker = 1'000'000 + round * (kWaiters + 1);
    const LockKey key{kOltpRelation, 1'000'000 + round};
    sched.Spawn(LockOnce(locks, blocker, key));
    for (int w = 1; w <= kWaiters; ++w) {
      sched.Spawn(LockOnce(locks, blocker + w, key));
    }
    sched.Run();  // every waiter is now parked behind the blocker
    const double t0 = NowSeconds();
    for (int w = 1; w <= kWaiters; ++w) {
      if (locks.AbortWaiter(blocker + w)) ++cost.ops;
    }
    cost.wall_s += NowSeconds() - t0;
    sched.Run();  // victims resume with failure and exit
    locks.ReleaseAll(blocker);
  }
  cost.allocs = AllocCount() - allocs0;
  return cost;
}

// --- netsim: Network ---------------------------------------------------------

// Redistribution traffic: one-packet messages between random PE pairs
// (the scan operators ship one packet of tuples per message).
sim::Task<> SendLoop(pdblb::Network& net, int num_pes, int64_t bytes,
                     sim::Rng rng) {
  for (;;) {
    const pdblb::PeId src =
        static_cast<pdblb::PeId>(rng.UniformInt(0, num_pes - 1));
    pdblb::PeId dst =
        static_cast<pdblb::PeId>(rng.UniformInt(0, num_pes - 2));
    if (dst >= src) ++dst;
    co_await net.Transfer(src, dst, bytes);
  }
}

Cost ProbeNetwork(const SystemConfig& cfg) {
  sim::Scheduler sched;
  std::vector<std::unique_ptr<sim::Resource>> cpus;
  std::vector<sim::Resource*> cpu_ptrs;
  for (int pe = 0; pe < cfg.num_pes; ++pe) {
    cpus.push_back(std::make_unique<sim::Resource>(sched, cfg.cpus_per_pe,
                                                   "probe.cpu"));
    cpu_ptrs.push_back(cpus.back().get());
  }
  pdblb::Network net(sched, cfg.network, cfg.costs, cfg.mips_per_pe,
                     std::move(cpu_ptrs));
  const int tuple_size = cfg.relation_a.tuple_size_bytes;
  const int64_t bytes =
      std::max(1, cfg.network.packet_size_bytes / tuple_size) * tuple_size;
  sim::Rng rng(cfg.seed);
  for (int s = 0; s < 2 * cfg.num_pes; ++s) {
    sched.Spawn(SendLoop(net, cfg.num_pes, bytes, rng.Fork(s)));
  }
  return WarmThenRun(
      sched, [&] { return static_cast<uint64_t>(net.packets_sent()); },
      400'000, 100.0);
}

// --- core: LoadBalancingPolicy::Plan -----------------------------------------

// Plans joins against a control node of cfg.num_pes PEs whose reports are
// redrawn every 16 plans (one control interval's worth of joins at the
// 80-PE arrival rate).  Only the Plan calls are timed.
Cost ProbePlanner(const SystemConfig& cfg,
                  const std::vector<pdblb::StrategyConfig>& strategies) {
  pdblb::CostModel cost_model(cfg);
  pdblb::JoinPlanRequest request;
  request.hash_table_pages = cost_model.HashTablePages();
  request.psu_opt = cost_model.PsuOpt();
  request.psu_noio = cost_model.PsuNoIO();
  request.num_pes = cfg.num_pes;
  request.scan_rate_tps = cost_model.ScanProductionRateTps();
  request.join_rate_tps = cost_model.JoinConsumptionRateTps();

  pdblb::ControlNode control(cfg.num_pes, cfg.adaptive_selection_feedback);
  std::vector<std::unique_ptr<pdblb::LoadBalancingPolicy>> policies;
  for (const pdblb::StrategyConfig& s : strategies) {
    policies.push_back(pdblb::LoadBalancingPolicy::Create(s));
  }
  sim::Rng report_rng(cfg.seed);
  sim::Rng plan_rng(cfg.seed + 1);
  Cost cost;
  for (int round = 0; round < 4000; ++round) {
    for (pdblb::PeId pe = 0; pe < cfg.num_pes; ++pe) {
      control.Report(pe, report_rng.Uniform(),
                     static_cast<int>(report_rng.UniformInt(
                         0, cfg.buffer.buffer_pages)),
                     report_rng.Uniform());
    }
    pdblb::LoadBalancingPolicy& policy =
        *policies[static_cast<size_t>(round) % policies.size()];
    const uint64_t allocs0 = AllocCount();
    const double t0 = NowSeconds();
    for (int k = 0; k < 16; ++k) {
      (void)policy.Plan(request, control, plan_rng);
    }
    cost.wall_s += NowSeconds() - t0;
    cost.allocs += AllocCount() - allocs0;
    cost.ops += 16;
  }
  return cost;
}

}  // namespace

Metrics RunProbes(const SystemConfig& config, ProbeMix mix,
                  const std::vector<pdblb::StrategyConfig>& strategies,
                  SpanLog& spans, int parent) {
  Metrics m;
  auto probe = [&](const char* name, auto&& fn) {
    const int id = spans.Begin(std::string("probe.") + name, parent);
    Cost c = fn();
    spans.End(id);
    return c;
  };
  SetAllocCounting(true);
  const Cost sched = probe("simkern", [] { return ProbeScheduler(); });
  m["simkern.probe_ns_per_event"] = sched.NsPerOp();
  m["simkern.probe_allocs_per_event"] = sched.AllocsPerOp();

  const Cost disks = probe("iosim", [&] { return ProbeDisks(config, mix); });
  m["iosim.probe_ns_per_page"] = disks.NsPerOp();
  m["iosim.probe_allocs_per_page"] = disks.AllocsPerOp();

  const Cost buf = probe("bufmgr", [&] { return ProbeBuffer(config, mix); });
  m["bufmgr.probe_ns_per_fetch"] = buf.NsPerOp();
  m["bufmgr.probe_allocs_per_fetch"] = buf.AllocsPerOp();

  const Cost locks = probe("lockmgr", [&] { return ProbeLocks(config); });
  m["lockmgr.probe_ns_per_lock"] = locks.NsPerOp();
  m["lockmgr.probe_allocs_per_lock"] = locks.AllocsPerOp();
  const Cost aborts = probe("lockmgr.abort", [] { return ProbeLockAborts(); });
  m["lockmgr.probe_ns_per_abort"] = aborts.NsPerOp();

  const Cost net = probe("netsim", [&] { return ProbeNetwork(config); });
  m["netsim.probe_ns_per_packet"] = net.NsPerOp();
  m["netsim.probe_allocs_per_packet"] = net.AllocsPerOp();

  const Cost plans =
      probe("core", [&] { return ProbePlanner(config, strategies); });
  m["core.probe_ns_per_plan"] = plans.NsPerOp();
  m["core.probe_allocs_per_plan"] = plans.AllocsPerOp();
  SetAllocCounting(false);
  return m;
}

}  // namespace perfbench
