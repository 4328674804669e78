// Copyright 2026 the pdblb authors. MIT license.

#include "lockmgr/deadlock_detector.h"

#include <algorithm>
#include <map>
#include <set>

namespace pdblb {
namespace {

// How often the central detector collects the global wait-for graph.
constexpr SimTime kCheckIntervalMs = 1000.0;

}  // namespace

DeadlockDetector::DeadlockDetector(sim::Scheduler& sched,
                                   std::vector<LockManager*> lock_managers)
    : sched_(sched), lock_managers_(std::move(lock_managers)) {}

std::vector<TxnId> DeadlockDetector::FindCycleVictims(
    const std::vector<WaitForEdge>& edges) {
  // Adjacency over the (small) set of waiting transactions.
  std::map<TxnId, std::vector<TxnId>> adj;
  for (const auto& e : edges) adj[e.waiter].push_back(e.holder);

  std::vector<TxnId> victims;
  std::set<TxnId> removed;  // victims already chosen: break their cycles

  // Iterative color DFS with an explicit frame stack (no recursion, no
  // heap-allocated std::function); on finding a back edge, pick the
  // youngest (largest id) transaction on the cycle as victim, remove it,
  // restart.
  struct Frame {
    TxnId u;
    const std::vector<TxnId>* children;  // nullptr: u has no outgoing edges
    size_t next = 0;
  };
  std::vector<Frame> frames;
  std::vector<TxnId> stack_path;  // gray nodes in visitation order

  auto push_node = [&](TxnId u, std::map<TxnId, int>& color) {
    color[u] = 1;  // gray
    stack_path.push_back(u);
    auto it = adj.find(u);
    frames.push_back(Frame{u, it != adj.end() ? &it->second : nullptr});
  };

  bool changed = true;
  while (changed) {
    changed = false;
    std::map<TxnId, int> color;  // 0 white, 1 gray, 2 black

    for (const auto& [txn, _] : adj) {
      if (removed.count(txn) || color[txn] != 0) continue;
      frames.clear();
      stack_path.clear();
      push_node(txn, color);

      while (!frames.empty() && !changed) {
        Frame& f = frames.back();
        if (f.children == nullptr || f.next >= f.children->size()) {
          color[f.u] = 2;  // black
          stack_path.pop_back();
          frames.pop_back();
          continue;
        }
        TxnId v = (*f.children)[f.next++];
        if (removed.count(v) || removed.count(f.u)) continue;
        if (color[v] == 1) {
          // Cycle: everything from v to the top of stack_path.
          auto pos = std::find(stack_path.begin(), stack_path.end(), v);
          TxnId victim = *std::max_element(pos, stack_path.end());
          victims.push_back(victim);
          removed.insert(victim);
          changed = true;  // restart detection without the victim
        } else if (color[v] == 0) {
          push_node(v, color);
        }
      }
      if (changed) break;
    }
  }
  return victims;
}

std::vector<TxnId> DeadlockDetector::DetectAndResolve() {
  // Collect the wait-for edges site by site, recording which lock manager
  // contributed each waiter.  A victim is then aborted at its recorded site
  // directly, rather than probing every PE's lock table in turn — the
  // collected edges are the only cross-PE state the detector reads.
  std::vector<WaitForEdge> edges;
  std::map<TxnId, size_t> waiter_site;
  for (size_t i = 0; i < lock_managers_.size(); ++i) {
    const size_t before = edges.size();
    lock_managers_[i]->CollectWaitForEdges(&edges);
    for (size_t j = before; j < edges.size(); ++j) {
      waiter_site[edges[j].waiter] = i;  // a txn waits at one PE at a time
    }
  }

  std::vector<TxnId> victims = FindCycleVictims(edges);
  for (TxnId victim : victims) {
    auto site = waiter_site.find(victim);
    if (site != waiter_site.end()) {
      lock_managers_[site->second]->AbortWaiter(victim);
    }
  }
  return victims;
}

sim::Task<> DeadlockDetector::Run() {
  while (true) {
    co_await sched_.Delay(kCheckIntervalMs);
    DetectAndResolve();
  }
}

}  // namespace pdblb
