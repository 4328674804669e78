// Copyright 2026 the pdblb authors. MIT license.
//
// FrameTable: pdblb's one page-cache representation.  It backs both the
// per-PE database buffer (bufmgr/buffer_manager.h, any eviction policy) and
// the disk controller's LRU cache (iosim/disk.h, EvictionPolicyKind::kLru).
//
// A flat array of BufferFrame slots, a LIFO free list threaded through
// BufferFrame::next, an open-addressing page index (common/slot_index.h)
// and the EvictionPolicy that orders the resident frames.  The slots, the
// index and the policy are created on the first admission, not by the
// constructor: a PE that never caches a page pays nothing, and cluster
// construction stays allocation-light.  After that the table never grows,
// so hits, misses, admissions and evictions never touch the heap.

#ifndef PDBLB_BUFMGR_FRAME_TABLE_H_
#define PDBLB_BUFMGR_FRAME_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bufmgr/eviction_policy.h"
#include "catalog/relation.h"
#include "common/config.h"
#include "common/slot_index.h"
#include "common/units.h"

namespace pdblb {

class FrameTable {
 public:
  /// A table of `capacity` slots ordered by a `kind` policy.  Capacity 0
  /// makes a table that never holds a page.
  FrameTable(EvictionPolicyKind kind, int capacity)
      : kind_(kind), capacity_(capacity) {}
  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  int capacity() const { return capacity_; }
  int resident() const { return resident_; }
  bool full() const { return resident_ >= capacity_; }

  /// Slot holding `page`, or -1.
  int32_t Lookup(PageKey page) const {
    return index_.Find(page, [this](int32_t s) { return frames_[s].page; });
  }

  /// Re-reference of resident `slot`: shifts its access stamps and tells
  /// the policy.
  void Touch(int32_t slot, SimTime now) {
    BufferFrame& f = frames_[slot];
    f.prev_access = f.last_access;
    f.last_access = now;
    policy_->OnAccess(slot);
  }

  /// Admits `page`, which must not be resident, into a free slot (the
  /// table must not be full).  Returns the slot.
  int32_t Admit(PageKey page, SimTime now);

  /// Evicts the policy's victim and returns its frame as it was just before
  /// (page, dirty flag); the slot goes back on the free list.
  BufferFrame EvictVictim();

  /// Crash wipe: every slot is freed and the policy forgets its order.
  void Clear();

  BufferFrame& frame(int32_t slot) { return frames_[slot]; }
  /// Every slot, resident or free; empty before the first admission.
  const std::vector<BufferFrame>& frames() const { return frames_; }

 private:
  /// First admission: sizes the slots, threads the free list (lowest slot
  /// first), sizes the index and only then creates the policy — LFU derives
  /// its aging interval from the slot count.
  void Allocate();

  EvictionPolicyKind kind_;
  int capacity_;
  std::vector<BufferFrame> frames_;
  std::unique_ptr<EvictionPolicy> policy_;
  SlotIndex<PageKey, PageKeyHash> index_;
  int32_t free_head_ = -1;
  int resident_ = 0;
};

}  // namespace pdblb

#endif  // PDBLB_BUFMGR_FRAME_TABLE_H_
