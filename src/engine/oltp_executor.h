// Copyright 2026 the pdblb authors. MIT license.
//
// Debit-credit-style OLTP transaction execution (paper Section 5.1/5.3):
// four non-clustered index selects with updates on an OLTP-private relation,
// affinity-routed so that processing is local to the home node.  Uses strict
// 2PL tuple locks and no-force buffering.  The query lifecycle
// (engine/query.h) forces the commit log and restarts deadlock victims.

#ifndef PDBLB_ENGINE_OLTP_EXECUTOR_H_
#define PDBLB_ENGINE_OLTP_EXECUTOR_H_

#include "engine/cluster.h"
#include "engine/faults.h"
#include "simkern/task.h"

namespace pdblb {

/// Executes one OLTP transaction at its home node; records metrics.  `qa`
/// links the transaction to fault supervision (engine/faults.h); nullptr
/// when faults are disabled.
sim::Task<> ExecuteOltpTransaction(Cluster& cluster, PeId home,
                                   QueryAttempt* qa);

}  // namespace pdblb

#endif  // PDBLB_ENGINE_OLTP_EXECUTOR_H_
