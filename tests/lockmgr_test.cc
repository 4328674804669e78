// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for concurrency control: strict 2PL grant/wait rules, FCFS
// fairness, lock upgrades, and central global deadlock detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "lockmgr/deadlock_detector.h"
#include "lockmgr/lock_manager.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"

namespace pdblb {
namespace {

sim::Task<> LockOne(LockManager& lm, TxnId txn, LockKey key, LockMode mode,
                    std::vector<std::pair<TxnId, bool>>* log) {
  bool ok = co_await lm.Lock(txn, key, mode);
  log->push_back({txn, ok});
}

TEST(LockManagerTest, SharedLocksAreCompatible) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kShared, &log));
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].second);
  EXPECT_TRUE(log[1].second);
  EXPECT_EQ(lm.lock_waits(), 0);
}

TEST(LockManagerTest, ExclusiveConflictsWait) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kExclusive, &log));
  sched.RunUntil(1.0);
  ASSERT_EQ(log.size(), 1u);  // txn 2 waits
  EXPECT_EQ(lm.lock_waits(), 1);

  lm.ReleaseAll(1);
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 2);
  EXPECT_TRUE(log[1].second);
}

TEST(LockManagerTest, ReleaseGrantsAllCompatibleWaiters) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 3, {1, 7}, LockMode::kShared, &log));
  sched.RunUntil(1.0);
  lm.ReleaseAll(1);
  sched.Run();
  ASSERT_EQ(log.size(), 3u);  // both shared waiters granted together
}

TEST(LockManagerTest, FcfsPreventsStarvation) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kExclusive, &log));  // waits
  sched.Spawn(LockOne(lm, 3, {1, 7}, LockMode::kShared, &log));  // behind X
  sched.RunUntil(1.0);
  EXPECT_EQ(log.size(), 1u);  // the late S request must not jump the queue
  lm.ReleaseAll(1);
  sched.Run();
  ASSERT_EQ(log.size(), 2u);  // X granted; S still behind the X holder
  EXPECT_EQ(log[1].first, 2);
  lm.ReleaseAll(2);
  sched.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2].first, 3);
}

TEST(LockManagerTest, ReRequestIsGranted) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Run();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(lm.lock_waits(), 0);
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kShared, &log));  // must wait
  sched.RunUntil(1.0);
  EXPECT_EQ(log.size(), 2u);
  lm.ReleaseAll(1);
  sched.Run();
  EXPECT_EQ(log.size(), 3u);
}

TEST(LockManagerTest, ReleaseAllClearsState) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 1}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 1, {1, 2}, LockMode::kExclusive, &log));
  sched.Run();
  EXPECT_TRUE(lm.HoldsAnyLock(1));
  lm.ReleaseAll(1);
  EXPECT_FALSE(lm.HoldsAnyLock(1));
}

TEST(LockManagerTest, WaitForEdgesReported) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kExclusive, &log));
  sched.RunUntil(1.0);
  std::vector<WaitForEdge> edges;
  lm.CollectWaitForEdges(&edges);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 2);
  EXPECT_EQ(edges[0].holder, 1);
}

TEST(LockManagerTest, AbortWaiterResumesWithFailure) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kExclusive, &log));
  sched.RunUntil(1.0);
  EXPECT_TRUE(lm.AbortWaiter(2));
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 2);
  EXPECT_FALSE(log[1].second);  // aborted
  EXPECT_EQ(lm.deadlock_aborts(), 1);
}

TEST(DeadlockDetectorTest, FindsSimpleCycle) {
  std::vector<WaitForEdge> edges{{1, 2}, {2, 1}};
  auto victims = DeadlockDetector::FindCycleVictims(edges);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2);  // youngest (largest id) on the cycle
}

TEST(DeadlockDetectorTest, NoCycleNoVictims) {
  std::vector<WaitForEdge> edges{{1, 2}, {2, 3}, {1, 3}};
  EXPECT_TRUE(DeadlockDetector::FindCycleVictims(edges).empty());
}

TEST(DeadlockDetectorTest, FindsLongerCycle) {
  std::vector<WaitForEdge> edges{{1, 2}, {2, 3}, {3, 4}, {4, 1}};
  auto victims = DeadlockDetector::FindCycleVictims(edges);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 4);
}

TEST(DeadlockDetectorTest, MultipleIndependentCycles) {
  std::vector<WaitForEdge> edges{{1, 2}, {2, 1}, {5, 6}, {6, 5}};
  auto victims = DeadlockDetector::FindCycleVictims(edges);
  ASSERT_EQ(victims.size(), 2u);
}

TEST(DeadlockDetectorTest, ResolvesCrossPeDeadlock) {
  sim::Scheduler sched;
  LockManager lm0(sched), lm1(sched);
  DeadlockDetector detector(sched, {&lm0, &lm1});

  std::vector<std::pair<TxnId, bool>> log;
  // txn 1 holds k0@PE0, txn 2 holds k1@PE1; after a delay (so that both
  // first acquisitions interleave) each requests the other's lock.
  auto txn1 = [](sim::Scheduler& s, LockManager& a, LockManager& b,
                 std::vector<std::pair<TxnId, bool>>* out) -> sim::Task<> {
    (void)co_await a.Lock(1, {1, 0}, LockMode::kExclusive);
    co_await s.Delay(1.0);
    bool ok = co_await b.Lock(1, {1, 1}, LockMode::kExclusive);
    out->push_back({1, ok});
  };
  auto txn2 = [](sim::Scheduler& s, LockManager& a, LockManager& b,
                 std::vector<std::pair<TxnId, bool>>* out) -> sim::Task<> {
    (void)co_await b.Lock(2, {1, 1}, LockMode::kExclusive);
    co_await s.Delay(1.0);
    bool ok = co_await a.Lock(2, {1, 0}, LockMode::kExclusive);
    out->push_back({2, ok});
  };
  sched.Spawn(txn1(sched, lm0, lm1, &log));
  sched.Spawn(txn2(sched, lm0, lm1, &log));
  sched.RunUntil(5.0);
  EXPECT_TRUE(log.empty());  // genuinely deadlocked

  auto victims = detector.DetectAndResolve();
  sched.Run();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 2);
  EXPECT_FALSE(log[0].second);
  // Releasing the victim's locks lets txn 1 finish.
  lm1.ReleaseAll(2);
  lm0.ReleaseAll(2);
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second);
}

// --- lock table against a reference model ------------------------------------
// The lock table runs on recycled slots with intrusive waiter queues.  The
// model is a deliberately naive strict-2PL table sharing no code with it —
// a std::map of entries, each a holder vector plus a std::deque of queued
// requests, a std::map from transaction to held keys, and an AbortWaiter
// that searches every entry for the victim's oldest request and serves
// every entry — and predicts every immediate grant and every wake-up, in
// order.

class LockTableModel {
 public:
  struct Wake {
    int id;
    bool ok;
  };

  /// True if the request is granted at once; otherwise it queues.
  bool Lock(int id, TxnId txn, LockKey k, LockMode mode) {
    const Key key{k.relation_id, k.tuple_id};
    Entry& e = table_[key];
    const bool holds_here =
        std::any_of(e.holders.begin(), e.holders.end(),
                    [&](const Holder& h) { return h.txn == txn; });
    if ((e.waiters.empty() || holds_here) && CanGrant(e, txn, mode)) {
      Grant(key, e, txn, mode);
      return true;
    }
    ++waits_;
    e.waiters.push_back(Request{id, txn, mode});
    return false;
  }

  std::vector<Wake> ReleaseAll(TxnId txn) {
    std::vector<Wake> wakes;
    auto it = held_.find(txn);
    if (it == held_.end()) return wakes;
    std::vector<Key> keys = std::move(it->second);
    held_.erase(it);
    for (const Key& key : keys) {
      Entry& e = table_[key];
      e.holders.erase(std::remove_if(e.holders.begin(), e.holders.end(),
                                     [&](const Holder& h) {
                                       return h.txn == txn;
                                     }),
                      e.holders.end());
      Serve(key, e, &wakes);
      if (e.holders.empty() && e.waiters.empty()) table_.erase(key);
    }
    return wakes;
  }

  /// Entry by entry, in the order the victim queued there (request ids
  /// grow with every request made): aborts its requests on the entry, then
  /// serves the entry.  Serving every other entry afterwards must change
  /// nothing.
  std::vector<Wake> AbortWaiter(TxnId victim, bool* found) {
    std::vector<Wake> wakes;
    *found = false;
    for (;;) {
      const Key* oldest = nullptr;
      int oldest_id = 0;
      for (const auto& [key, e] : table_) {
        for (const Request& r : e.waiters) {
          if (r.txn == victim && (oldest == nullptr || r.id < oldest_id)) {
            oldest = &key;
            oldest_id = r.id;
          }
        }
      }
      if (oldest == nullptr) break;
      const Key key = *oldest;
      Entry& e = table_[key];
      for (auto it = e.waiters.begin(); it != e.waiters.end();) {
        if (it->txn != victim) {
          ++it;
          continue;
        }
        wakes.push_back(Wake{it->id, false});
        ++aborts_;
        *found = true;
        it = e.waiters.erase(it);
      }
      Serve(key, e, &wakes);
    }
    for (auto& [key, e] : table_) Serve(key, e, &wakes);
    return wakes;
  }

  /// Withdraws queued request `id` (its frame was destroyed).
  std::vector<Wake> Cancel(int id) {
    std::vector<Wake> wakes;
    for (auto& [key, e] : table_) {
      for (auto it = e.waiters.begin(); it != e.waiters.end(); ++it) {
        if (it->id != id) continue;
        e.waiters.erase(it);
        Serve(key, e, &wakes);
        return wakes;
      }
    }
    ADD_FAILURE() << "request " << id << " is not queued";
    return wakes;
  }

  /// A queued request of `txn`, or -1.
  int QueuedRequest(TxnId txn) const {
    for (const auto& [key, e] : table_) {
      for (const Request& r : e.waiters) {
        if (r.txn == txn) return r.id;
      }
    }
    return -1;
  }

  /// The keys `txn` has requests queued on.
  std::vector<LockKey> QueuedKeys(TxnId txn) const {
    std::vector<LockKey> keys;
    for (const auto& [key, e] : table_) {
      for (const Request& r : e.waiters) {
        if (r.txn == txn) keys.push_back(LockKey{key.first, key.second});
      }
    }
    return keys;
  }

  /// Waiter -> the incompatible holders of the entry it waits on, in
  /// holder order.
  std::map<TxnId, std::vector<TxnId>> Edges() const {
    std::map<TxnId, std::vector<TxnId>> edges;
    for (const auto& [key, e] : table_) {
      for (const Request& r : e.waiters) {
        for (const Holder& h : e.holders) {
          if (h.txn != r.txn && !Compatible(h.mode, r.mode)) {
            edges[r.txn].push_back(h.txn);
          }
        }
      }
    }
    return edges;
  }

  bool HoldsAnyLock(TxnId txn) const {
    auto it = held_.find(txn);
    return it != held_.end() && !it->second.empty();
  }

  int64_t granted() const { return granted_; }
  int64_t waits() const { return waits_; }
  int64_t aborts() const { return aborts_; }

 private:
  using Key = std::pair<int32_t, int64_t>;
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct Request {
    int id;
    TxnId txn;
    LockMode mode;
  };
  struct Entry {
    std::vector<Holder> holders;
    std::deque<Request> waiters;
  };

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }

  static bool CanGrant(const Entry& e, TxnId txn, LockMode mode) {
    for (const Holder& h : e.holders) {
      if (h.txn == txn) {
        if (h.mode == LockMode::kExclusive || mode == LockMode::kShared) {
          return true;
        }
        continue;  // upgrade: only the other holders matter
      }
      if (!Compatible(h.mode, mode)) return false;
    }
    return true;
  }

  void Grant(const Key& key, Entry& e, TxnId txn, LockMode mode) {
    ++granted_;
    for (Holder& h : e.holders) {
      if (h.txn == txn) {
        if (mode == LockMode::kExclusive) h.mode = LockMode::kExclusive;
        return;
      }
    }
    e.holders.push_back(Holder{txn, mode});
    held_[txn].push_back(key);
  }

  void Serve(const Key& key, Entry& e, std::vector<Wake>* wakes) {
    while (!e.waiters.empty()) {
      const Request r = e.waiters.front();
      if (!CanGrant(e, r.txn, r.mode)) break;
      e.waiters.pop_front();
      Grant(key, e, r.txn, r.mode);
      wakes->push_back(Wake{r.id, true});
    }
  }

  std::map<Key, Entry> table_;
  std::map<TxnId, std::vector<Key>> held_;
  int64_t granted_ = 0;
  int64_t waits_ = 0;
  int64_t aborts_ = 0;
};

sim::Task<> Request(LockManager& lm, int id, TxnId txn, LockKey key,
                    LockMode mode, std::vector<std::pair<int, bool>>* log) {
  const bool ok = co_await lm.Lock(txn, key, mode);
  log->push_back({id, ok});
}

TEST(LockTableModelTest, MatchesMapDequeReferenceOnSeededInterleavings) {
  constexpr int kTxns = 5;
  constexpr int kKeys = 3;
  constexpr int kSteps = 3000;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    sim::Scheduler sched;
    LockManager lm(sched);
    LockTableModel model;
    sim::Rng rng(seed);
    std::vector<std::pair<int, bool>> log;  // (request, granted) by resume
    std::map<int, uint64_t> spawned;         // request -> spawn id
    TxnId txns[kTxns] = {1, 2, 3, 4, 5};
    TxnId next_txn = kTxns + 1;
    int next_request = 0;
    int64_t cancelled_wakes = 0;
    int64_t multi_queue_aborts = 0;

    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const size_t log_before = log.size();
      std::vector<LockTableModel::Wake> want;
      const int slot = static_cast<int>(rng.UniformInt(0, kTxns - 1));
      const TxnId txn = txns[slot];
      const double action = rng.Uniform();
      // A waiting transaction may queue a second request on another key
      // (a join's two scans on one PE share a transaction); it releases and
      // is replaced by a fresh transaction only while it waits for nothing.
      const std::vector<LockKey> queued = model.QueuedKeys(txn);
      const bool waiting = !queued.empty();
      if (action < 0.45) {
        if (queued.size() >= 2) continue;
        const LockKey key{1, rng.UniformInt(0, kKeys - 1)};
        if (waiting && key == queued.front()) continue;
        const LockMode mode = rng.Uniform() < 0.5 ? LockMode::kShared
                                                   : LockMode::kExclusive;
        const int id = next_request++;
        if (model.Lock(id, txn, key, mode)) want.push_back({id, true});
        spawned[id] = sched.SpawnWithId(Request(lm, id, txn, key, mode, &log));
      } else if (action < 0.7 || action >= 0.9) {
        want = model.ReleaseAll(txn);
        lm.ReleaseAll(txn);
        if (action >= 0.9 && !want.empty()) {
          // The first woken request is cancelled before it resumes: its
          // lock stays granted, but its frame never logs.
          EXPECT_TRUE(sched.Cancel(spawned[want.front().id]));
          want.erase(want.begin());
          ++cancelled_wakes;
        }
        if (!waiting) txns[slot] = next_txn++;
      } else if (action < 0.8) {
        bool found = false;
        want = model.AbortWaiter(txn, &found);
        EXPECT_EQ(lm.AbortWaiter(txn), found);
        if (queued.size() >= 2) ++multi_queue_aborts;
      } else {
        const int id = model.QueuedRequest(txn);
        if (id < 0) continue;
        want = model.Cancel(id);
        EXPECT_TRUE(sched.Cancel(spawned[id]));
      }
      sched.Run();

      ASSERT_EQ(log.size() - log_before, want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(log[log_before + i].first, want[i].id);
        EXPECT_EQ(log[log_before + i].second, want[i].ok);
      }
      std::vector<WaitForEdge> edges;
      lm.CollectWaitForEdges(&edges);
      std::map<TxnId, std::vector<TxnId>> got;
      for (const WaitForEdge& e : edges) got[e.waiter].push_back(e.holder);
      std::map<TxnId, std::vector<TxnId>> want_edges = model.Edges();
      for (auto* by_waiter : {&got, &want_edges}) {
        for (auto& [waiter, holders] : *by_waiter) {
          // Across the entries one transaction waits on, the edge order is
          // table order, which the model does not share.
          if (model.QueuedKeys(waiter).size() > 1) {
            std::sort(holders.begin(), holders.end());
          }
        }
      }
      ASSERT_EQ(got, want_edges);
      for (TxnId t = std::max<TxnId>(1, next_txn - 16); t < next_txn; ++t) {
        ASSERT_EQ(lm.HoldsAnyLock(t), model.HoldsAnyLock(t)) << "txn " << t;
      }
      ASSERT_EQ(lm.locks_granted(), model.granted());
      ASSERT_EQ(lm.lock_waits(), model.waits());
      ASSERT_EQ(lm.deadlock_aborts(), model.aborts());
    }
    // The trace must reach every path it is meant to cover.
    EXPECT_GT(lm.lock_waits(), 100);
    EXPECT_GT(lm.deadlock_aborts(), 10);
    EXPECT_GT(cancelled_wakes, 10);
    EXPECT_GT(multi_queue_aborts, 10);
  }
}

}  // namespace
}  // namespace pdblb
