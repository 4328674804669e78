// Copyright 2026 the pdblb authors. MIT license.
//
// RingBuffer<T, InlineCapacity>: the recycled FIFO backing every blocking
// primitive's waiter/value queue (Resource, Channel, TaskGroup, the buffer
// manager's memory queue) and the scheduler's same-time ring and hand-off
// lane.
//
// Why not a standard deque: libstdc++'s deque allocates and frees 512-byte
// chunks as the head/tail cross chunk boundaries, so a heavily contended
// station pays a malloc every ~64 waiters *forever*, not just warm-up.  The
// ring recycles one power-of-two slab: after it has grown to the high-water
// mark of the queue, push/pop are a store, a load and a masked increment —
// zero steady-state allocations (pinned by tests/simkern_alloc_test.cc).
//
// `InlineCapacity` (a power of two, may be 0) embeds the first slots in the
// object itself.  Short-lived primitives constructed per query or per
// fork/join (TaskGroup, per-join channels) never touch the heap at all as
// long as their queue stays within the inline capacity.

#ifndef PDBLB_SIMKERN_RING_H_
#define PDBLB_SIMKERN_RING_H_

#include <cassert>
#include <cstddef>
#include <new>
#include <utility>

namespace pdblb::sim {

namespace internal {

template <typename T, size_t N>
struct InlineSlots {
  alignas(T) unsigned char bytes[N * sizeof(T)];
  T* data() { return reinterpret_cast<T*>(bytes); }
};

template <typename T>
struct InlineSlots<T, 0> {
  T* data() { return nullptr; }
};

}  // namespace internal

template <typename T, size_t InlineCapacity = 0>
class RingBuffer {
  static_assert((InlineCapacity & (InlineCapacity - 1)) == 0,
                "InlineCapacity must be zero or a power of two");

 public:
  RingBuffer() = default;
  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  ~RingBuffer() {
    clear();
    if (data_ != nullptr && data_ != inline_.data()) FreeSlots(data_);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  void push_back(T value) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    ::new (static_cast<void*>(data_ + Index(size_))) T(std::move(value));
    ++size_;
  }

  T& front() {
    assert(size_ > 0);
    return data_[head_];
  }

  /// FIFO-indexed access: `(*this)[0]` is the front, `[size()-1]` the back.
  T& operator[](size_t i) {
    assert(i < size_);
    return data_[Index(i)];
  }

  /// Removes the last element matching `pred`, preserving FIFO order of the
  /// rest (elements behind the hole shift forward one slot).  Used by
  /// cancellation paths to pull a destroyed frame's waiter entry out of the
  /// queue, where a frame sits at most once.  Scans from the back: the
  /// newest-first unwind (Scheduler::CancelAll) erases a queue from its
  /// tail, one step each.  O(size) moves at most, no allocation.  Returns
  /// false if nothing matched.
  template <typename Pred>
  bool EraseLastIf(Pred pred) {
    for (size_t i = size_; i-- > 0;) {
      if (!pred(data_[Index(i)])) continue;
      for (size_t j = i; j + 1 < size_; ++j) {
        data_[Index(j)] = std::move(data_[Index(j + 1)]);
      }
      data_[Index(size_ - 1)].~T();
      --size_;
      return true;
    }
    return false;
  }

  void pop_front() {
    assert(size_ > 0);
    data_[head_].~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Destroys all elements; capacity (and therefore the zero-allocation
  /// steady state) is retained.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  /// Grows capacity to at least `n` slots (rounded up to a power of two).
  void reserve(size_t n) {
    if (n <= capacity_) return;
    size_t cap = capacity_ == 0 ? kMinHeapCapacity : capacity_;
    while (cap < n) cap *= 2;
    Grow(cap);
  }

 private:
  static constexpr size_t kMinHeapCapacity = 16;

  size_t Index(size_t i) const { return (head_ + i) & (capacity_ - 1); }

  static T* AllocateSlots(size_t n) {
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    } else {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
  }
  static void FreeSlots(T* p) {
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(p, std::align_val_t(alignof(T)));
    } else {
      ::operator delete(p);
    }
  }

  void Grow(size_t cap) {
    if (cap < kMinHeapCapacity) cap = kMinHeapCapacity;
    T* grown = AllocateSlots(cap);
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(grown + i)) T(std::move(data_[Index(i)]));
      data_[Index(i)].~T();
    }
    if (data_ != nullptr && data_ != inline_.data()) FreeSlots(data_);
    data_ = grown;
    capacity_ = cap;
    head_ = 0;
  }

  // With inline capacity the ring starts life pointing at the embedded
  // slots; the first heap growth copies out of them and never goes back.
  internal::InlineSlots<T, InlineCapacity> inline_;
  T* data_ = InlineCapacity > 0 ? inline_.data() : nullptr;
  size_t capacity_ = InlineCapacity;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_RING_H_
