// Copyright 2026 the pdblb authors. MIT license.
//
// SlotIndex<Key, Hash>: the open-addressing hash index behind every
// slot-recycling table in pdblb — the page tables of bufmgr/frame_table.h
// and the lock and transaction tables of lockmgr/lock_manager.h.
//
// The index maps a key to a slot of a caller-owned slot array.  Buckets hold
// slot + 1 (0 = empty) and nothing else: the key of an occupied bucket is
// read back from the slot array through the caller's `key_of(slot)`, so the
// keys are never duplicated.  Linear probing keeps probes cache-local;
// deletion shifts the displaced tail of the probe chain backward, so lookups
// never meet tombstones.  Reset() sizes the buckets to a power of two of at
// least twice the slot count (load <= 50 %); Find, Insert and Erase never
// allocate.  A table whose slot array grows calls Reset() again and
// re-inserts its live slots.

#ifndef PDBLB_COMMON_SLOT_INDEX_H_
#define PDBLB_COMMON_SLOT_INDEX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pdblb {

template <typename Key, typename Hash>
class SlotIndex {
 public:
  /// Drops every entry and sizes the buckets for up to `slots` entries.
  void Reset(size_t slots) {
    size_t buckets = 16;
    while (buckets < slots * 2) buckets <<= 1;
    buckets_.assign(buckets, 0);
    mask_ = static_cast<uint32_t>(buckets - 1);
  }

  /// Drops every entry and keeps the size.
  void Clear() { std::fill(buckets_.begin(), buckets_.end(), 0); }

  /// Bucket count; 0 before the first Reset().
  size_t buckets() const { return buckets_.size(); }

  /// Slot holding `key`, or -1.
  template <typename KeyOf>
  int32_t Find(const Key& key, KeyOf key_of) const {
    if (buckets_.empty()) return -1;
    for (uint32_t i = Home(key); buckets_[i] != 0; i = (i + 1) & mask_) {
      const int32_t slot = buckets_[i] - 1;
      if (key_of(slot) == key) return slot;
    }
    return -1;
  }

  /// Indexes `slot` under `key`, which must not be indexed yet.
  void Insert(const Key& key, int32_t slot) {
    uint32_t i = Home(key);
    while (buckets_[i] != 0) i = (i + 1) & mask_;
    buckets_[i] = slot + 1;
  }

  /// Removes `key`, which must be indexed.
  template <typename KeyOf>
  void Erase(const Key& key, KeyOf key_of) {
    uint32_t i = Home(key);
    while (true) {
      assert(buckets_[i] != 0 && "erasing a key that is not indexed");
      if (key_of(buckets_[i] - 1) == key) break;
      i = (i + 1) & mask_;
    }
    // Backward-shift deletion: pull every displaced entry of the probe chain
    // forward so lookups never need tombstones.
    uint32_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (buckets_[j] == 0) break;
      const uint32_t home = Home(key_of(buckets_[j] - 1));
      // Move entry j into the hole at i iff probing from its home bucket
      // would have passed i (cyclic distance test).
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
    buckets_[i] = 0;
  }

 private:
  uint32_t Home(const Key& key) const {
    return static_cast<uint32_t>(Hash{}(key)) & mask_;
  }

  std::vector<int32_t> buckets_;
  uint32_t mask_ = 0;
};

}  // namespace pdblb

#endif  // PDBLB_COMMON_SLOT_INDEX_H_
