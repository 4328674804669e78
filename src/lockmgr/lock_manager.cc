// Copyright 2026 the pdblb authors. MIT license.

#include "lockmgr/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace pdblb {
namespace {

// The entry and transaction tables share one slot discipline: a live slot's
// `key` is indexed, free slots form a LIFO list through `next_free`, and a
// full table appends a slot, doubling the index once the slot array
// outgrows half its buckets.

template <typename Slot, typename Key, typename Hash>
int32_t FindSlot(const std::vector<Slot>& slots,
                 const SlotIndex<Key, Hash>& index, const Key& key) {
  return index.Find(key, [&slots](int32_t s) { return slots[s].key; });
}

template <typename Slot, typename Key, typename Hash>
int32_t FindOrAddSlot(std::vector<Slot>& slots, SlotIndex<Key, Hash>& index,
                      int32_t& free_head, const Key& key) {
  int32_t s = FindSlot(slots, index, key);
  if (s >= 0) return s;
  if (free_head >= 0) {
    s = free_head;
    free_head = slots[s].next_free;
  } else {
    s = static_cast<int32_t>(slots.size());
    slots.emplace_back();
    if (slots.size() * 2 > index.buckets()) {
      index.Reset(slots.size());
      for (int32_t i = 0; i < s; ++i) {
        if (slots[i].live) index.Insert(slots[i].key, i);
      }
    }
  }
  slots[s].key = key;
  slots[s].live = true;
  index.Insert(key, s);
  return s;
}

template <typename Slot, typename Key, typename Hash>
void FreeSlot(std::vector<Slot>& slots, SlotIndex<Key, Hash>& index,
              int32_t& free_head, int32_t s) {
  index.Erase(slots[s].key, [&slots](int32_t i) { return slots[i].key; });
  slots[s].live = false;
  slots[s].next_free = free_head;
  free_head = s;
}

}  // namespace

bool LockManager::CanGrant(const Entry& entry, TxnId txn, LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) {
      if (h.mode == LockMode::kExclusive || mode == LockMode::kShared) {
        return true;  // already strong enough (or re-requesting S)
      }
      continue;  // S->X upgrade: granted if no other holder conflicts
    }
    if (!Compatible(h.mode, mode)) return false;
  }
  return true;
}

int32_t LockManager::FindTxn(TxnId txn) const {
  return FindSlot(txns_, txn_index_, txn);
}

void LockManager::AddHolder(int32_t e, TxnId txn, LockMode mode) {
  for (Holder& h : entries_[e].holders) {
    if (h.txn == txn) {
      if (mode == LockMode::kExclusive) h.mode = LockMode::kExclusive;
      return;
    }
  }
  entries_[e].holders.push_back(Holder{txn, mode});
  txns_[FindOrAddSlot(txns_, txn_index_, free_txn_, txn)].held.push_back(e);
}

sim::Task<bool> LockManager::Lock(TxnId txn, LockKey key, LockMode mode) {
  const int32_t e = FindOrAddSlot(entries_, entry_index_, free_entry_, key);
  Entry& entry = entries_[e];

  // FCFS fairness: a new request must also wait behind queued waiters,
  // unless the transaction already holds the lock (avoid self-deadlock).
  bool holds_here = std::any_of(
      entry.holders.begin(), entry.holders.end(),
      [&](const Holder& h) { return h.txn == txn; });

  if ((entry.head == nullptr || holds_here) && CanGrant(entry, txn, mode)) {
    // Grant immediately (fresh grant or upgrade).
    AddHolder(e, txn, mode);
    ++locks_granted_;
    co_return true;
  }

  // Wait FCFS.
  ++lock_waits_;
  Waiter waiter{txn, mode, e};
  waiter.prev = entry.tail;
  (entry.tail != nullptr ? entry.tail->next : entry.head) = &waiter;
  entry.tail = &waiter;
  Waiter** last = &txns_[FindOrAddSlot(txns_, txn_index_, free_txn_, txn)]
                       .waiting;
  while (*last != nullptr) last = &(*last)->txn_next;
  *last = &waiter;

  // `waiter` lives on this coroutine frame; the entry's queue and the
  // transaction's list link through it.  The awaiter's destructor undoes
  // that registration when the frame is destroyed mid-suspension
  // (Scheduler::Cancel cascade): either the waiter is still queued (unlink
  // it) or it was already granted/aborted and a wake event is in flight
  // (scrub it).  A granted lock stays held — the cancelling supervisor runs
  // ReleaseAll(txn) afterwards.  The scheduler pointer is stored directly
  // because at full teardown the manager itself may already be gone.
  struct Awaiter {
    sim::Scheduler* sched;
    LockManager* mgr;
    Waiter* w;
    std::coroutine_handle<> pending = nullptr;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      pending = h;
      w->handle = h;
    }
    void await_resume() noexcept { pending = nullptr; }
    ~Awaiter() {
      if (!pending || sched->tearing_down()) return;
      if (w->queued) {
        const int32_t t = mgr->Dequeue(w);
        // Removing a blocked waiter may unblock the queue behind it.
        mgr->GrantWaiters(w->entry);
        mgr->MaybeFreeTxn(t);
        return;
      }
      sched->CancelHandle(pending);
    }
  };
  co_await Awaiter{&sched_, this, &waiter};

  if (waiter.aborted) {
    ++deadlock_aborts_;
    co_return false;
  }
  assert(waiter.granted);
  co_return true;
}

void LockManager::Unqueue(Waiter* w) {
  Entry& entry = entries_[w->entry];
  (w->prev != nullptr ? w->prev->next : entry.head) = w->next;
  (w->next != nullptr ? w->next->prev : entry.tail) = w->prev;
  w->prev = nullptr;
  w->next = nullptr;
  w->queued = false;
}

int32_t LockManager::Dequeue(Waiter* w) {
  Unqueue(w);
  const int32_t t = FindTxn(w->txn);
  Waiter** link = &txns_[t].waiting;
  while (*link != w) link = &(*link)->txn_next;
  *link = w->txn_next;
  w->txn_next = nullptr;
  return t;
}

void LockManager::GrantWaiters(int32_t e) {
  while (Waiter* w = entries_[e].head) {
    if (!CanGrant(entries_[e], w->txn, w->mode)) break;
    Dequeue(w);
    AddHolder(e, w->txn, w->mode);
    ++locks_granted_;
    w->granted = true;
    assert(w->handle);
    sched_.ScheduleAfter(0.0, w->handle, tag_);
  }
}

void LockManager::MaybeFreeTxn(int32_t t) {
  if (txns_[t].held.empty() && txns_[t].waiting == nullptr) {
    FreeSlot(txns_, txn_index_, free_txn_, t);
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  const int32_t t = FindTxn(txn);
  if (t < 0) return;
  // Serving a released entry's queue may grant this very transaction again
  // (its own upgrade queued there); such a lock is appended to `held` and
  // stays held — only the first `n` entries are released.
  const size_t n = txns_[t].held.size();
  for (size_t i = 0; i < n; ++i) {
    const int32_t e = txns_[t].held[i];
    std::vector<Holder>& holders = entries_[e].holders;
    holders.erase(std::remove_if(holders.begin(), holders.end(),
                                 [&](const Holder& h) { return h.txn == txn; }),
                  holders.end());
    GrantWaiters(e);
    if (entries_[e].holders.empty() && entries_[e].head == nullptr) {
      FreeSlot(entries_, entry_index_, free_entry_, e);
    }
  }
  std::vector<int32_t>& held = txns_[t].held;
  held.erase(held.begin(), held.begin() + static_cast<std::ptrdiff_t>(n));
  MaybeFreeTxn(t);
}

void LockManager::CollectWaitForEdges(std::vector<WaitForEdge>* edges) const {
  for (const Entry& entry : entries_) {
    for (const Waiter* w = entry.head; w != nullptr; w = w->next) {
      for (const Holder& h : entry.holders) {
        if (h.txn != w->txn && !Compatible(h.mode, w->mode)) {
          edges->push_back(WaitForEdge{w->txn, h.txn});
        }
      }
      // Waiters also wait for earlier incompatible waiters (FCFS queue),
      // which matters for X behind S chains; keep it simple and conservative
      // by only reporting holder edges — sufficient for cycle detection in
      // the workloads modeled here.
    }
  }
}

bool LockManager::AbortWaiter(TxnId victim) {
  const int32_t t = FindTxn(victim);
  if (t < 0 || txns_[t].waiting == nullptr) return false;
  // Entry by entry, in the order the victim queued there: abort its
  // requests on the entry, then serve the queue they leave (removing a
  // blocked waiter may unblock the requests behind it).
  while (const Waiter* oldest = txns_[t].waiting) {
    const int32_t e = oldest->entry;
    for (Waiter* w = entries_[e].head; w != nullptr;) {
      Waiter* next = w->next;
      if (w->txn == victim) {
        Dequeue(w);
        w->aborted = true;
        assert(w->handle);
        sched_.ScheduleAfter(0.0, w->handle, tag_);
      }
      w = next;
    }
    GrantWaiters(e);
  }
  MaybeFreeTxn(t);
  return true;
}

bool LockManager::HoldsAnyLock(TxnId txn) const {
  const int32_t t = FindTxn(txn);
  return t >= 0 && !txns_[t].held.empty();
}

void LockManager::ResetStats() {
  locks_granted_ = 0;
  lock_waits_ = 0;
  deadlock_aborts_ = 0;
}

}  // namespace pdblb
