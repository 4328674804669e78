// Copyright 2026 the pdblb authors. MIT license.
//
// Concurrency control (paper Section 4): distributed strict two-phase
// locking with long read/write locks.  Each PE owns a lock table for the
// data it stores; a central deadlock detector (deadlock_detector.h)
// periodically collects wait-for edges from all PEs and resolves global
// deadlocks by aborting a victim.
//
// Join queries in the evaluated workloads run read-only against relations
// the OLTP load does not touch (the paper points to multiversion CC for
// read-only queries), so the lock manager is exercised by the OLTP classes
// and by dedicated tests.
//
// Representation: two tables of recycled slots, each behind an
// open-addressing index (common/slot_index.h) that doubles once the slot
// array outgrows half its buckets.  A lock entry slot holds the key, its
// holders in grant order (a vector that keeps its capacity across reuse)
// and the FCFS waiter queue, an intrusive list threaded through the
// `Waiter` records that live on the waiting coroutines' frames.  A
// transaction slot holds the entries the transaction holds, in grant
// order, and its queued waiters, so ReleaseAll and AbortWaiter touch only
// that transaction's entries.  Slots return to LIFO free lists when they
// empty; once the tables have grown to the peak number of live entries and
// transactions, locking, waiting, releasing and aborting never allocate.

#ifndef PDBLB_LOCKMGR_LOCK_MANAGER_H_
#define PDBLB_LOCKMGR_LOCK_MANAGER_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/slot_index.h"
#include "common/units.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

enum class LockMode { kShared, kExclusive };

/// Lockable object: a tuple of a relation.
struct LockKey {
  int32_t relation_id = 0;
  int64_t tuple_id = 0;
  bool operator==(const LockKey&) const = default;
};

struct LockKeyHash {
  size_t operator()(const LockKey& k) const {
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(k.relation_id))
                  << 44) ^
                 static_cast<uint64_t>(k.tuple_id);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

/// A wait-for edge: `waiter` waits for `holder`.
struct WaitForEdge {
  TxnId waiter;
  TxnId holder;
};

/// Per-PE lock table implementing strict 2PL.
class LockManager {
 public:
  /// `tag` attributes grant/abort wake-ups in event traces.
  explicit LockManager(
      sim::Scheduler& sched,
      sim::TraceTag tag = sim::TraceTag(sim::TraceSubsystem::kLock))
      : sched_(sched), tag_(tag) {}
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `key` in `mode` for `txn`, waiting FCFS behind incompatible
  /// holders.  Re-requests by a holding transaction are granted (including
  /// S->X upgrade when it is the sole holder).  Returns false if the
  /// transaction was chosen as a deadlock victim while waiting.
  sim::Task<bool> Lock(TxnId txn, LockKey key, LockMode mode);

  /// Releases all locks of `txn` (end of transaction under strict 2PL) and
  /// grants any now-compatible waiters.
  void ReleaseAll(TxnId txn);

  /// Appends this PE's wait-for edges (waiter -> each incompatible holder).
  /// One entry's edges come in queue order, then holder order; a
  /// transaction queued on several entries gets their edges in table order.
  void CollectWaitForEdges(std::vector<WaitForEdge>* edges) const;

  /// Aborts a waiting transaction: removes its pending requests and resumes
  /// them with failure.  Returns true if the txn was found waiting here.
  /// Entries are handled one at a time, in the order the victim queued on
  /// them: its requests there are woken first, then the requests they
  /// blocked are granted.
  bool AbortWaiter(TxnId victim);

  /// True if `txn` currently holds any lock here (for tests).
  bool HoldsAnyLock(TxnId txn) const;

  int64_t locks_granted() const { return locks_granted_; }
  int64_t lock_waits() const { return lock_waits_; }
  int64_t deadlock_aborts() const { return deadlock_aborts_; }
  void ResetStats();

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  /// One queued request; lives on the waiting coroutine's frame.
  struct Waiter {
    TxnId txn;
    LockMode mode;
    int32_t entry;  ///< slot of the entry it queues on
    std::coroutine_handle<> handle = nullptr;
    Waiter* prev = nullptr;  ///< entry FIFO neighbours
    Waiter* next = nullptr;
    Waiter* txn_next = nullptr;  ///< the transaction's other queued waiters
    bool queued = true;
    bool granted = false;
    bool aborted = false;
  };
  struct Entry {
    LockKey key;                  ///< indexed while live
    std::vector<Holder> holders;  ///< grant order
    Waiter* head = nullptr;       ///< FCFS queue
    Waiter* tail = nullptr;
    int32_t next_free = -1;
    bool live = false;
  };
  struct TxnSlot {
    TxnId key = 0;                ///< indexed while live
    std::vector<int32_t> held;    ///< entry slots, grant order
    Waiter* waiting = nullptr;    ///< oldest first, via Waiter::txn_next
    int32_t next_free = -1;
    bool live = false;
  };

  // Transaction ids are handed out sequentially; the key hash's mixing
  // spreads a run of live ids over the buckets.
  struct TxnIdHash {
    size_t operator()(TxnId txn) const {
      return LockKeyHash{}(LockKey{0, txn});
    }
  };

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }

  /// True if `txn` could be granted `mode` on `entry` right now.
  static bool CanGrant(const Entry& entry, TxnId txn, LockMode mode);

  /// Slot of `txn`'s transaction record, or -1.
  int32_t FindTxn(TxnId txn) const;
  /// Records `txn` as a holder of entry `e` in `mode` (or upgrades it).
  void AddHolder(int32_t e, TxnId txn, LockMode mode);
  /// Grants queue heads of entry `e` while possible.
  void GrantWaiters(int32_t e);
  /// Unlinks a queued waiter from its entry's FCFS queue.
  void Unqueue(Waiter* w);
  /// Unqueue() plus removal from its transaction's list of queued waiters;
  /// returns the transaction's slot.
  int32_t Dequeue(Waiter* w);
  /// Frees transaction slot `t` once it holds nothing and waits nowhere.
  void MaybeFreeTxn(int32_t t);

  sim::Scheduler& sched_;
  sim::TraceTag tag_;
  std::vector<Entry> entries_;
  SlotIndex<LockKey, LockKeyHash> entry_index_;
  int32_t free_entry_ = -1;
  std::vector<TxnSlot> txns_;
  SlotIndex<TxnId, TxnIdHash> txn_index_;
  int32_t free_txn_ = -1;

  int64_t locks_granted_ = 0;
  int64_t lock_waits_ = 0;
  int64_t deadlock_aborts_ = 0;
};

}  // namespace pdblb

#endif  // PDBLB_LOCKMGR_LOCK_MANAGER_H_
