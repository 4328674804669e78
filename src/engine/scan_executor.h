// Copyright 2026 the pdblb authors. MIT license.
//
// Standalone scan and update query classes (paper Section 4 lists relation
// scan, clustered index scan, non-clustered index scan and update statements
// among the supported query types).
//
// Scan queries read their target relation in parallel at the data
// processors (the processor allocation of scans is always prescribed by the
// data allocation — paper Section 4, "Workload allocation") and merge the
// selected tuples at the coordinator; they commit with the read-only
// optimization.
//
// Update statements locate the affected tuples (via the clustered index or
// a full scan when no index supports the predicate), X-lock their pages
// under every concurrency control scheme, and commit with a full two-phase
// commit including forced log writes.  Deadlock victims restart the
// statement.  Both run in the query lifecycle (engine/query.h).

#ifndef PDBLB_ENGINE_SCAN_EXECUTOR_H_
#define PDBLB_ENGINE_SCAN_EXECUTOR_H_

#include "engine/cluster.h"
#include "engine/faults.h"
#include "simkern/task.h"

namespace pdblb {

/// Executes one scan query (config: SystemConfig::scan_query).  `qa` links
/// the query to fault supervision (engine/faults.h); nullptr when faults
/// are disabled.
sim::Task<> ExecuteScanQuery(Cluster& cluster, QueryAttempt* qa);

/// Executes one update statement (config: SystemConfig::update_query).
sim::Task<> ExecuteUpdateQuery(Cluster& cluster, QueryAttempt* qa);

}  // namespace pdblb

#endif  // PDBLB_ENGINE_SCAN_EXECUTOR_H_
