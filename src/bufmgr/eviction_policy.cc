// Copyright 2026 the pdblb authors. MIT license.
//
// The four replacement policies.  Semantics (documented in docs/bufmgr.md
// and mirrored by the reference models in tests/bufmgr_policy_test.cc):
//
//  * LRU     — intrusive doubly-linked recency list threaded through the
//              frame slots (head = MRU, tail = LRU).  Exactly reproduces the
//              victim sequence of the old std::list implementation, so
//              default-policy runs stay byte-identical to pre-refactor
//              builds.
//  * LRU-K   — K = 2: victim is the frame with the oldest second-to-last
//              access (backward-K-distance), reusing the prev_access
//              bookkeeping the working-set estimator already maintains.
//              Single-touch frames (prev_access = never) rank before any
//              twice-touched frame, which is the classic LRU-2 property that
//              protects the hot set from sequential floods.
//  * LFU     — least-frequently-used with aging: per-frame reference
//              counters, halved across the resident set every
//              max(64, 16 * capacity) policy events so a formerly-hot page
//              cannot pin its frame forever.
//  * CLOCK   — second-chance ring threaded through the frame slots; the
//              hand sweeps, clearing reference bits, and evicts the first
//              unreferenced frame.
//
// Ties are impossible for LRU/CLOCK (structural order) and broken by the
// lowest slot index for the scan-based policies — slot assignment itself is
// deterministic (LIFO free list), so every policy yields reproducible victim
// sequences across reruns and --jobs.

#include "bufmgr/eviction_policy.h"

#include <cassert>

namespace pdblb {
namespace {

class LruPolicy final : public EvictionPolicy {
 public:
  using EvictionPolicy::EvictionPolicy;

  void OnAdmit(int32_t slot) override { PushFront(slot); }

  void OnAccess(int32_t slot) override {
    if (head_ == slot) return;
    Unlink(slot);
    PushFront(slot);
  }

  int32_t PickVictim() override {
    assert(tail_ >= 0 && "PickVictim on an empty pool");
    return tail_;
  }

  void OnEvict(int32_t slot) override { Unlink(slot); }

  void Reset() override {
    head_ = -1;
    tail_ = -1;
  }

 private:
  void PushFront(int32_t slot) {
    BufferFrame& f = frames_[slot];
    f.prev = -1;
    f.next = head_;
    if (head_ >= 0) frames_[head_].prev = slot;
    head_ = slot;
    if (tail_ < 0) tail_ = slot;
  }

  void Unlink(int32_t slot) {
    BufferFrame& f = frames_[slot];
    if (f.prev >= 0) frames_[f.prev].next = f.next;
    if (f.next >= 0) frames_[f.next].prev = f.prev;
    if (head_ == slot) head_ = f.next;
    if (tail_ == slot) tail_ = f.prev;
    f.prev = -1;
    f.next = -1;
  }

  int32_t head_ = -1;  // most recently used
  int32_t tail_ = -1;  // least recently used
};

class LruKPolicy final : public EvictionPolicy {
 public:
  using EvictionPolicy::EvictionPolicy;

  // The table's (prev_access, last_access) stamps carry all the state.
  void OnAdmit(int32_t) override {}
  void OnAccess(int32_t) override {}
  void OnEvict(int32_t) override {}
  void Reset() override {}

  int32_t PickVictim() override {
    int32_t best = -1;
    for (int32_t s = 0; s < static_cast<int32_t>(frames_.size()); ++s) {
      const BufferFrame& f = frames_[s];
      if (!f.resident) continue;
      if (best < 0 || RanksBefore(f, frames_[best])) best = s;
    }
    assert(best >= 0 && "PickVictim on an empty pool");
    return best;
  }

 private:
  // Oldest backward-2-distance first; plain recency as the tiebreak.  The
  // ascending scan keeps the lowest slot on full ties.
  static bool RanksBefore(const BufferFrame& a, const BufferFrame& b) {
    if (a.prev_access != b.prev_access) return a.prev_access < b.prev_access;
    return a.last_access < b.last_access;
  }
};

class LfuPolicy final : public EvictionPolicy {
 public:
  explicit LfuPolicy(std::vector<BufferFrame>& frames)
      : EvictionPolicy(frames),
        aging_interval_(
            16 * static_cast<int64_t>(frames.size()) > 64
                ? 16 * static_cast<int64_t>(frames.size())
                : 64) {}

  void OnAdmit(int32_t slot) override {
    frames_[slot].freq = 1;
    Tick();
  }

  void OnAccess(int32_t slot) override {
    BufferFrame& f = frames_[slot];
    if (f.freq < kFreqCap) ++f.freq;
    Tick();
  }

  int32_t PickVictim() override {
    int32_t best = -1;
    for (int32_t s = 0; s < static_cast<int32_t>(frames_.size()); ++s) {
      const BufferFrame& f = frames_[s];
      if (!f.resident) continue;
      if (best < 0 || RanksBefore(f, frames_[best])) best = s;
    }
    assert(best >= 0 && "PickVictim on an empty pool");
    return best;
  }

  void OnEvict(int32_t slot) override { frames_[slot].freq = 0; }

  void Reset() override { events_ = 0; }

 private:
  static constexpr uint32_t kFreqCap = 1u << 30;

  static bool RanksBefore(const BufferFrame& a, const BufferFrame& b) {
    if (a.freq != b.freq) return a.freq < b.freq;
    return a.last_access < b.last_access;
  }

  // Aging: halve every counter periodically so stale formerly-hot pages
  // decay back toward the eviction frontier.
  void Tick() {
    if (++events_ < aging_interval_) return;
    events_ = 0;
    for (BufferFrame& f : frames_) {
      if (f.resident && f.freq > 1) f.freq >>= 1;
    }
  }

  const int64_t aging_interval_;
  int64_t events_ = 0;
};

class ClockPolicy final : public EvictionPolicy {
 public:
  using EvictionPolicy::EvictionPolicy;

  void OnAdmit(int32_t slot) override {
    BufferFrame& f = frames_[slot];
    f.referenced = true;
    if (hand_ < 0) {
      f.prev = slot;
      f.next = slot;
      hand_ = slot;
      return;
    }
    // Insert just behind the hand: the newcomer is the last frame the sweep
    // reaches, giving it a full revolution of grace.
    int32_t h = hand_;
    int32_t p = frames_[h].prev;
    f.prev = p;
    f.next = h;
    frames_[p].next = slot;
    frames_[h].prev = slot;
  }

  void OnAccess(int32_t slot) override { frames_[slot].referenced = true; }

  int32_t PickVictim() override {
    assert(hand_ >= 0 && "PickVictim on an empty pool");
    // Terminates: each referenced frame passed loses its bit, so a full
    // revolution leaves at least one frame unreferenced.
    while (frames_[hand_].referenced) {
      frames_[hand_].referenced = false;
      hand_ = frames_[hand_].next;
    }
    return hand_;
  }

  void OnEvict(int32_t slot) override {
    BufferFrame& f = frames_[slot];
    if (f.next == slot) {  // last resident frame
      hand_ = -1;
      f.prev = -1;
      f.next = -1;
      return;
    }
    frames_[f.prev].next = f.next;
    frames_[f.next].prev = f.prev;
    if (hand_ == slot) hand_ = f.next;
    f.prev = -1;
    f.next = -1;
  }

  void Reset() override { hand_ = -1; }

 private:
  int32_t hand_ = -1;
};

}  // namespace

std::unique_ptr<EvictionPolicy> EvictionPolicy::Create(
    EvictionPolicyKind kind, std::vector<BufferFrame>& frames) {
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return std::make_unique<LruPolicy>(frames);
    case EvictionPolicyKind::kLruK:
      return std::make_unique<LruKPolicy>(frames);
    case EvictionPolicyKind::kLfu:
      return std::make_unique<LfuPolicy>(frames);
    case EvictionPolicyKind::kClock:
      return std::make_unique<ClockPolicy>(frames);
  }
  assert(false && "unknown eviction policy");
  return std::make_unique<LruPolicy>(frames);
}

}  // namespace pdblb
