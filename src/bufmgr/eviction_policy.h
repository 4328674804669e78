// Copyright 2026 the pdblb authors. MIT license.
//
// Pluggable page-replacement policies over a FrameTable (frame_table.h).
// Policies keep their per-frame state (intrusive list links, reference
// counters, second-chance bits) *inside* the BufferFrame slots and never
// allocate, so every policy preserves the kernel's zero-allocation
// steady-state discipline (pinned by tests/simkern_alloc_test.cc).
//
// Division of labour: the FrameTable owns residency (free list, page index,
// access timestamps) and calls the policy at the four interesting moments —
// admit, access, victim selection, evict.  A policy only orders resident
// frames; it never touches the free list or the page index.

#ifndef PDBLB_BUFMGR_EVICTION_POLICY_H_
#define PDBLB_BUFMGR_EVICTION_POLICY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/relation.h"
#include "common/config.h"
#include "common/units.h"

namespace pdblb {

/// One slot of a FrameTable.  Fixed-size POD.
struct BufferFrame {
  /// "Never" must predate any window cutoff, including at time zero.
  static constexpr SimTime kNever = -1e18;

  PageKey page{0, 0};
  SimTime last_access = kNever;
  SimTime prev_access = kNever;  ///< second-to-last access (working-set test)

  /// Intrusive links, interpreted by the active policy: LRU list neighbours
  /// or CLOCK ring neighbours for resident frames.  For free frames `next`
  /// threads the table's free list.
  int32_t prev = -1;
  int32_t next = -1;

  uint32_t freq = 0;        ///< LFU reference counter (aged by halving).
  bool referenced = false;  ///< CLOCK second-chance bit.
  bool dirty = false;
  bool resident = false;
};

/// Victim-selection strategy over a frame table.  All hooks are O(1) for
/// LRU/CLOCK and O(capacity) scans for the ranking policies (LRU-K, LFU) —
/// acceptable because eviction already implies a disk I/O and the paper's
/// pools are small.  No hook allocates.
class EvictionPolicy {
 public:
  static std::unique_ptr<EvictionPolicy> Create(
      EvictionPolicyKind kind, std::vector<BufferFrame>& frames);

  virtual ~EvictionPolicy() = default;
  EvictionPolicy(const EvictionPolicy&) = delete;
  EvictionPolicy& operator=(const EvictionPolicy&) = delete;

  /// `slot` just became resident (timestamps already stamped).
  virtual void OnAdmit(int32_t slot) = 0;
  /// `slot` was re-referenced (timestamps already updated).
  virtual void OnAccess(int32_t slot) = 0;
  /// Picks the resident frame to evict next.  Does not evict: the table
  /// unindexes the frame and calls OnEvict.  Requires at least one
  /// resident frame.
  virtual int32_t PickVictim() = 0;
  /// `slot` is leaving the resident set.
  virtual void OnEvict(int32_t slot) = 0;
  /// Crash wipe: the table has reset every frame; drop all policy state.
  virtual void Reset() = 0;

  /// Abstract; construction goes through Create().  Public so the derived
  /// policies can inherit it (inherited constructors keep base access).
  explicit EvictionPolicy(std::vector<BufferFrame>& frames)
      : frames_(frames) {}

 protected:
  std::vector<BufferFrame>& frames_;
};

}  // namespace pdblb

#endif  // PDBLB_BUFMGR_EVICTION_POLICY_H_
