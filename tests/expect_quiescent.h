// Copyright 2026 the pdblb authors. MIT license.
//
// The conservation check after a run: Cluster::Run ends by unwinding the
// work still in flight (Scheduler::CancelAll), and every cancellation path
// must give back what it held.

#ifndef PDBLB_TESTS_EXPECT_QUIESCENT_H_
#define PDBLB_TESTS_EXPECT_QUIESCENT_H_

#include <gtest/gtest.h>

#include "engine/cluster.h"

namespace pdblb {

/// Expects `cluster`, after Run(), to hold no in-flight process and no
/// pending event; at every PE no busy or queued admission slot or CPU
/// server, no buffer reservation and no memory-queue entry; and no lock
/// held by any transaction the run issued.
inline void ExpectQuiescent(Cluster& cluster) {
  EXPECT_EQ(cluster.sched().detached_in_flight(), 0u);
  EXPECT_EQ(cluster.sched().pending_events(), 0u);
  for (PeId id = 0; id < cluster.num_pes(); ++id) {
    ProcessingElement& pe = cluster.pe(id);
    EXPECT_EQ(pe.admission().busy(), 0) << "pe " << id;
    EXPECT_EQ(pe.admission().queue_length(), 0u) << "pe " << id;
    EXPECT_EQ(pe.buffer().reserved(), 0) << "pe " << id;
    EXPECT_EQ(pe.buffer().memory_queue_length(), 0u) << "pe " << id;
    EXPECT_EQ(pe.cpu().busy(), 0) << "pe " << id;
    EXPECT_EQ(pe.cpu().queue_length(), 0u) << "pe " << id;
  }
  // Counted, not expected one by one: a leak shows once, not per lock.
  const TxnId issued = cluster.NextTxnId();
  int holders = 0;
  for (TxnId txn = 1; txn < issued; ++txn) {
    for (PeId id = 0; id < cluster.num_pes(); ++id) {
      if (!cluster.pe(id).locks().HoldsAnyLock(txn)) continue;
      if (holders++ == 0) {
        ADD_FAILURE() << "txn " << txn << " holds a lock at pe " << id;
      }
    }
  }
  EXPECT_EQ(holders, 0) << "(transaction, PE) pairs still holding locks";
}

}  // namespace pdblb

#endif  // PDBLB_TESTS_EXPECT_QUIESCENT_H_
