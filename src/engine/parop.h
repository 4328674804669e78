// Copyright 2026 the pdblb authors. MIT license.
//
// PAROP: the parallelization meta-operator of the paper's query processing
// system (Section 4) — the machinery shared by every parallel executor:
// dynamic data redistribution between operator instances, subquery startup
// message delivery, and the distributed commit rounds.

#ifndef PDBLB_ENGINE_PAROP_H_
#define PDBLB_ENGINE_PAROP_H_

#include <cstdint>
#include <memory>
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

/// The PEs that serve the fragments of `rel` homed at `homes`: each
/// fragment's current owner, which is its home until an elastic migration
/// moved it (catalog/ownership.h).  Data processing happens at the owner;
/// the fragment's geometry, page keys and lock site stay at the home.
std::vector<PeId> FragmentOwners(const Cluster& c, const Relation& rel,
                                 const std::vector<PeId>& homes);

/// Charges `instructions` on `pe`'s CPU server.  Returns the resource's
/// frameless Use awaiter directly — `co_await UseCpu(...)` suspends the
/// caller on the CPU's wait queue without an intermediate coroutine frame.
inline auto UseCpu(Cluster& c, PeId pe, int64_t instructions) {
  return c.pe(pe).cpu().Use(
      InstructionsToMs(instructions, c.config().mips_per_pe));
}

/// Ships one tuple batch over the network and hands it to the consumer's
/// channel in the event that ends the receiver's CPU service.  Not a
/// coroutine: the returned task is the network transfer itself, so a
/// packet in flight holds one frame.
sim::Task<> SendBatch(Cluster& c, PeId src, PeId dst, int64_t tuples,
                      int tuple_size, BatchChannel* channel);

/// Wire + receiver-side cost of a control message whose send costs the
/// coordinator already serialized itself.
sim::Task<> DeliverControl(Cluster& c, PeId dest);

/// One participant's part of the read-only-optimized commit (single round):
/// receive the commit message, release resources, acknowledge.
sim::Task<> CommitRound(Cluster& c, PeId coord, PeId dest);

/// One participant's part of a full two-phase commit (update transactions):
/// prepare round with a forced log write, then the commit round.
sim::Task<> TwoPhaseCommitRounds(Cluster& c, PeId coord, PeId dest);

/// Acquires a long page-level read lock for a read-only (sub)query under
/// CcScheme::kTwoPhaseLocking.  A read-only deadlock victim releases its
/// PE-local read locks (breaking any cycle through this node), backs off
/// and re-acquires — the cursor-stability-style degradation a performance
/// simulator can afford for queries that a real system would run under
/// multiversion CC anyway (paper footnote 1).
sim::Task<> LockPageShared(Cluster& c, PeId node, TxnId txn, PageKey page);

/// Parallel scan of one fragment with dynamic redistribution: reads the
/// selected page range through the buffer, charges per-tuple CPU, and
/// streams page-sized packets to the destinations.  `dest_frac` holds the
/// partitioning function's per-destination tuple fractions.  When
/// `read_lock_txn` is non-zero (CcScheme::kTwoPhaseLocking), every scanned
/// page is read-locked for that transaction first (at the fragment owner's
/// lock manager).
///
/// `fragment_owner` names the PE whose fragment is scanned; -1 means `node`
/// scans its own fragment (Shared Nothing).  Under Shared Disk a scan
/// processor may scan any fragment — the pages come off the shared spindles
/// through `node`'s storage adapter, while the page keys (and locks) belong
/// to the owner.
sim::Task<> ScanRedistribute(
    Cluster& c, PeId node, const Relation& rel, int64_t sel_tuples,
    const std::vector<PeId>& dests, const std::vector<double>& dest_frac,
    const std::vector<std::unique_ptr<BatchChannel>>& channels,
    sim::TaskGroup& sends, TxnId read_lock_txn = 0, PeId fragment_owner = -1);

/// Redistributes `tuples` tuples already materialized at `src` (an
/// intermediate result) to the destinations: per-tuple output CPU plus
/// packetized network transfers.  Used between pipeline stages of multi-way
/// joins.
sim::Task<> Redistribute(
    Cluster& c, PeId src, int64_t tuples, int tuple_size,
    const std::vector<PeId>& dests, const std::vector<double>& dest_frac,
    const std::vector<std::unique_ptr<BatchChannel>>& channels,
    sim::TaskGroup& sends);

}  // namespace pdblb::parop

#endif  // PDBLB_ENGINE_PAROP_H_
