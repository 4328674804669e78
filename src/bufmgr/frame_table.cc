// Copyright 2026 the pdblb authors. MIT license.

#include "bufmgr/frame_table.h"

#include <cassert>

namespace pdblb {

void FrameTable::Allocate() {
  frames_.resize(static_cast<size_t>(capacity_));
  const int32_t n = static_cast<int32_t>(frames_.size());
  for (int32_t s = 0; s < n; ++s) frames_[s].next = s + 1 < n ? s + 1 : -1;
  free_head_ = 0;
  index_.Reset(frames_.size());
  policy_ = EvictionPolicy::Create(kind_, frames_);
}

int32_t FrameTable::Admit(PageKey page, SimTime now) {
  if (frames_.empty()) Allocate();
  assert(Lookup(page) < 0);
  assert(free_head_ >= 0 && "Admit with no free frame");
  const int32_t slot = free_head_;
  BufferFrame& f = frames_[slot];
  free_head_ = f.next;
  f.page = page;
  f.last_access = now;
  f.prev_access = BufferFrame::kNever;
  f.prev = -1;
  f.next = -1;
  f.dirty = false;
  f.resident = true;
  index_.Insert(page, slot);
  ++resident_;
  policy_->OnAdmit(slot);
  return slot;
}

BufferFrame FrameTable::EvictVictim() {
  const int32_t slot = policy_->PickVictim();
  assert(slot >= 0 && frames_[slot].resident);
  BufferFrame& f = frames_[slot];
  const BufferFrame victim = f;
  policy_->OnEvict(slot);
  index_.Erase(f.page, [this](int32_t s) { return frames_[s].page; });
  f.last_access = BufferFrame::kNever;
  f.prev_access = BufferFrame::kNever;
  f.freq = 0;
  f.referenced = false;
  f.dirty = false;
  f.resident = false;
  f.prev = -1;
  f.next = free_head_;
  free_head_ = slot;
  --resident_;
  return victim;
}

void FrameTable::Clear() {
  if (frames_.empty()) return;
  const int32_t n = static_cast<int32_t>(frames_.size());
  for (int32_t s = 0; s < n; ++s) {
    BufferFrame& f = frames_[s];
    f.page = PageKey{0, 0};
    f.last_access = BufferFrame::kNever;
    f.prev_access = BufferFrame::kNever;
    f.prev = -1;
    f.next = s + 1 < n ? s + 1 : -1;
    f.freq = 0;
    f.referenced = false;
    f.dirty = false;
    f.resident = false;
  }
  free_head_ = 0;
  resident_ = 0;
  index_.Clear();
  policy_->Reset();
}

}  // namespace pdblb
