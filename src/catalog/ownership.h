// Copyright 2026 the pdblb authors. MIT license.
//
// Fragment-ownership map for elastic cluster resize.  The
// declustering itself (which PE is the *home* of fragment i, hence which
// global page range it covers) is immutable catalog geometry; what moves
// during a rebalance is the *owner* — the PE whose disks, buffer and lock
// manager currently serve the fragment.  Queries resolve home -> owner at
// execution time, so a fragment migrated mid-run is transparently served by
// its new PE while PageKeys, page counts and lock keys stay keyed by home.
//
// Resize-free determinism: when no migration has ever completed, Owner() is
// the identity and no map lookup happens, so runs without addpe/drainpe
// events execute the exact pre-elastic event sequence.

#ifndef PDBLB_CATALOG_OWNERSHIP_H_
#define PDBLB_CATALOG_OWNERSHIP_H_

#include <cstdint>
#include <map>
#include <utility>

#include "common/units.h"

namespace pdblb {

class OwnershipMap {
 public:
  /// Current owner of the fragment of `relation_id` homed at `home`.
  /// Identity until a migration of that fragment commits.
  PeId Owner(int32_t relation_id, PeId home) const {
    if (moves_.empty()) return home;  // fast path: nothing ever moved
    auto it = moves_.find({relation_id, home});
    return it == moves_.end() ? home : it->second;
  }

  /// Commits an ownership flip (the last migration batch of the fragment
  /// landed).  `owner == home` erases the entry so a fragment migrated
  /// back to its home costs nothing again.
  void SetOwner(int32_t relation_id, PeId home, PeId owner) {
    if (owner == home) {
      moves_.erase({relation_id, home});
    } else {
      moves_[{relation_id, home}] = owner;
    }
  }

  /// Number of fragments currently owned away from home.
  size_t MovedCount() const { return moves_.size(); }

  /// Deterministically ordered view of the moved fragments:
  /// (relation_id, home) -> owner, ascending by (relation_id, home).
  const std::map<std::pair<int32_t, PeId>, PeId>& moves() const {
    return moves_;
  }

 private:
  std::map<std::pair<int32_t, PeId>, PeId> moves_;
};

}  // namespace pdblb

#endif  // PDBLB_CATALOG_OWNERSHIP_H_
