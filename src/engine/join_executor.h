// Copyright 2026 the pdblb authors. MIT license.
//
// Parallel hash-join query execution (paper Sections 2 and 4) as a
// left-deep pipeline of join stages:
//
//   (A ⋈ B) ⋈ C [⋈ C ...]
//
// The stages are the body of a read-only query in the lifecycle
// (engine/query.h), which admits the query at its coordinator and finishes
// it with the read-only-optimized distributed commit.  Every stage consults
// the control node and asks the load-balancing policy for its degree of
// join parallelism and its join processors, so each stage adapts to the
// system state the previous one left.  A stage then starts its subqueries
// and drives two phases:
//
//  * building: the inner input is redistributed to the join processors,
//    which build their hash tables.  Stage 1 scans A; a later stage
//    redistributes the previous stage's result, which stayed at that
//    stage's join processors;
//  * probing: the outer input (B in stage 1, C afterwards) is scanned,
//    redistributed and probed.  Only the last stage ships its result to
//    the coordinator.
//
// Stage 1 is the paper's two-way join.  All stages share the scan placement
// (each fragment's owner under Shared Nothing, the least CPU-utilized PEs
// under Shared Disk), the page read locks of the query's one read
// transaction under strict 2PL, and the partitioning function with its
// configured redistribution skew.

#ifndef PDBLB_ENGINE_JOIN_EXECUTOR_H_
#define PDBLB_ENGINE_JOIN_EXECUTOR_H_

#include "engine/cluster.h"
#include "engine/faults.h"
#include "simkern/task.h"

namespace pdblb {

/// Executes one `ways`-way join query end to end (`ways` >= 2), recorded as
/// a two-way join (QueryClass::kJoin) or a multi-way join (kMultiwayJoin).
/// Spawn via Scheduler::Spawn (open workload) or await (single-user mode).
/// `qa` links the query to the fault injector's supervision (fail fast on
/// dead PEs, cancellation on crash); nullptr in fault-free runs.
sim::Task<> ExecuteJoinQuery(Cluster& cluster, int ways,
                             QueryAttempt* qa = nullptr);

}  // namespace pdblb

#endif  // PDBLB_ENGINE_JOIN_EXECUTOR_H_
