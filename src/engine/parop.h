// Copyright 2026 the pdblb authors. MIT license.
//
// PAROP: the parallelization meta-operator of the paper's query processing
// system (Section 4) — the machinery shared by every parallel executor:
// dynamic data redistribution between operator instances (one Exchange per
// phase), the coordinator's message fan-out, subquery startup, and the
// distributed commit rounds.  Every message is a netsim message
// (netsim/network.h), which alone knows what one costs.

#ifndef PDBLB_ENGINE_PAROP_H_
#define PDBLB_ENGINE_PAROP_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "catalog/relation.h"
#include "engine/cluster.h"
#include "simkern/channel.h"
#include "simkern/task.h"
#include "simkern/task_group.h"

namespace pdblb::parop {

/// A redistribution batch: some tuples travelling to one operator instance.
struct Batch {
  int64_t tuples = 0;
};
using BatchChannel = sim::Channel<Batch>;

/// `total` split into `parts` near-equal shares (remainder spread left).
std::vector<int64_t> SplitEvenly(int64_t total, int parts);

/// The PEs that serve the fragments of `rel`, in rel.home_pes() order: each
/// fragment's current owner, which is its home until an elastic migration
/// moved it (catalog/ownership.h).  Data processing happens at the owner;
/// the fragment's geometry, page keys and lock site stay at the home.
std::vector<PeId> FragmentOwners(const Cluster& c, const Relation& rel);

/// Charges `instructions` on `pe`'s CPU server.  Returns the resource's
/// frameless Use awaiter directly — `co_await UseCpu(...)` suspends the
/// caller on the CPU's wait queue without an intermediate coroutine frame.
inline auto UseCpu(Cluster& c, PeId pe, int64_t instructions) {
  return c.pe(pe).cpu().Use(
      InstructionsToMs(instructions, c.config().mips_per_pe));
}

/// The same charge for a coroutine that keeps one reusable awaiter: aims
/// `leg` at it, and the caller then does `co_await leg`.
inline void UseCpu(sim::Leg& leg, Cluster& c, PeId pe, int64_t instructions) {
  leg.Use(c.pe(pe).cpu(),
          InstructionsToMs(instructions, c.config().mips_per_pe));
}

/// One redistribution phase of a join stage: a channel per join processor
/// (destination), the consumers that drain them, the sources that feed
/// them (scans, or the previous stage's result holders) and the messages in
/// flight between the two.  The members are declared in that order, so a
/// cancelled phase unwinds the messages, then the sources, then the
/// consumers, and frees the channels last.  `dests` and `dest_frac` (the
/// partitioning function's per-destination tuple fractions) must outlive
/// the exchange.
class Exchange {
 public:
  Exchange(Cluster& c, const std::vector<PeId>& dests,
           const std::vector<double>& dest_frac);

  int size() const { return static_cast<int>(dests_.size()); }
  const std::vector<double>& dest_frac() const { return dest_frac_; }
  BatchChannel* channel(int j) { return channels_[j].get(); }
  sim::TaskGroup& consumers() { return consumers_; }
  sim::TaskGroup& sources() { return sources_; }

  /// Ships `tuples` tuples of `tuple_size` bytes from `src` to destination
  /// `j` as one message, which hands the batch to channel `j` in the event
  /// that ends the receiver's CPU service.  A message in flight is its
  /// network transfer's frame alone.
  void Send(PeId src, int j, int64_t tuples, int tuple_size);

  /// The phase's end: waits for the sources, then for the messages in
  /// flight, closes every channel and waits for the consumers.
  sim::Task<> Finish();

 private:
  Cluster& c_;
  const std::vector<PeId>& dests_;
  const std::vector<double>& dest_frac_;
  std::vector<std::unique_ptr<BatchChannel>> channels_;
  sim::TaskGroup consumers_;
  sim::TaskGroup sources_;
  sim::TaskGroup messages_;
};

/// Subquery startup at `dest`: the coordinator's control message, whose
/// send CPU FanOut already charged.
sim::Task<> StartSubquery(Cluster& c, PeId coord, PeId dest);

/// One participant's part of the read-only-optimized commit (single round):
/// the commit message reaches it, it releases its resources and
/// acknowledges.
sim::Task<> CommitRound(Cluster& c, PeId coord, PeId dest);

/// One participant's part of a full two-phase commit (update transactions):
/// the prepare message, a forced log write and the vote, then the commit
/// message and its acknowledgement.
sim::Task<> TwoPhaseCommitRounds(Cluster& c, PeId coord, PeId dest);

/// One message round from `coord` to every other PE of `dests`: the
/// coordinator serializes the sends' CPU, so the round's startup grows
/// with the degree; the rest of each message and the participant's part
/// (`deliver`: StartSubquery, CommitRound or TwoPhaseCommitRounds) run in
/// parallel, and `local`, the coordinator's own part, runs while they are
/// in flight.
template <typename Dests, typename Local = std::suspend_never>
sim::Task<> FanOut(Cluster& c, PeId coord, const Dests& dests,
                   sim::Task<> (*deliver)(Cluster&, PeId, PeId),
                   Local local = {}) {
  sim::TaskGroup deliveries(c.sched());
  for (PeId dest : dests) {
    if (dest == coord) continue;
    co_await c.pe(coord).cpu().Use(c.net().SendMs(1));
    deliveries.Spawn(deliver(c, coord, dest));
  }
  co_await std::move(local);
  co_await deliveries.Wait();
}

/// Acquires a long page-level read lock for a read-only (sub)query under
/// CcScheme::kTwoPhaseLocking.  A read-only deadlock victim releases its
/// PE-local read locks (breaking any cycle through this node), backs off
/// and re-acquires — the cursor-stability-style degradation a performance
/// simulator can afford for queries that a real system would run under
/// multiversion CC anyway (paper footnote 1).
sim::Task<> LockPageShared(Cluster& c, PeId node, TxnId txn, PageKey page);

/// Parallel scan at `node` of the fragment of `rel` homed at `home` with
/// dynamic redistribution: reads the selected page range through `node`'s
/// buffer, charges per-tuple CPU there, and streams page-sized packets
/// through `ex` to its destinations.  When `read_lock_txn` is non-zero
/// (CcScheme::kTwoPhaseLocking), every scanned page is read-locked for that
/// transaction first, at the home's lock manager.
///
/// The fragment's geometry and page keys are the home's.  `node` is the
/// home itself, or the fragment's current owner after an elastic migration;
/// under Shared Disk it may be any PE, whose storage adapter reads the
/// pages off the shared spindles.
sim::Task<> ScanRedistribute(Cluster& c, PeId node, const Relation& rel,
                             int64_t sel_tuples, Exchange& ex,
                             TxnId read_lock_txn, PeId home);

/// Redistributes `tuples` tuples already materialized at `src` (an
/// intermediate result) through `ex`: per-tuple output CPU plus packetized
/// network transfers.  Used between pipeline stages of multi-way joins.
sim::Task<> Redistribute(Cluster& c, PeId src, int64_t tuples, int tuple_size,
                         Exchange& ex);

}  // namespace pdblb::parop

#endif  // PDBLB_ENGINE_PAROP_H_
