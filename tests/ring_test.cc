// Copyright 2026 the pdblb authors. MIT license.
//
// Property/stress tests for simkern/ring.h, the recycled FIFO backing every
// blocking primitive's waiter/value queue.  The ring was previously only
// exercised indirectly through Resource/Channel/TaskGroup; these tests drive
// wraparound, inline-to-heap growth and element lifetimes directly under
// randomized push/pop sequences against a std::deque reference model.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <string>

#include "simkern/ring.h"

namespace pdblb::sim {
namespace {

// Element that counts live instances: catches double-destroys and leaks in
// the ring's placement-new / manual-destroy lifetime management.
struct Tracked {
  static int64_t live;
  int value;
  explicit Tracked(int v = 0) : value(v) { ++live; }
  Tracked(const Tracked& o) : value(o.value) { ++live; }
  Tracked(Tracked&& o) noexcept : value(o.value) { ++live; }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) = default;
  ~Tracked() { --live; }
};
int64_t Tracked::live = 0;

int ValueOf(int v) { return v; }
int ValueOf(const Tracked& t) { return t.value; }

template <typename Ring>
void RandomizedAgainstDeque(Ring& ring, uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  std::deque<int> model;
  int next = 0;
  for (int op = 0; op < ops; ++op) {
    // Phased push bias: stretches of net growth then net drain, so the
    // head index sweeps the whole capacity range and wraps repeatedly.
    double push_bias = (op / 256) % 2 == 0 ? 0.7 : 0.3;
    bool push = model.empty() ||
                std::uniform_real_distribution<>(0.0, 1.0)(rng) < push_bias;
    if (push) {
      ring.push_back(typename Ring::value_type(next));
      model.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(ValueOf(ring.front()), model.front());
      ring.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(ring.empty(), model.empty());
  }
  // Drain: FIFO order must match the model exactly.
  while (!model.empty()) {
    ASSERT_EQ(ValueOf(ring.front()), model.front());
    ring.pop_front();
    model.pop_front();
  }
  ASSERT_TRUE(ring.empty());
}

// RingBuffer has no value_type member; adapt via small wrappers.
template <typename T, size_t Inline>
struct RingAdapter : RingBuffer<T, Inline> {
  using value_type = T;
};

TEST(RingBufferTest, RandomizedPushPopMatchesDequeNoInline) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    RingAdapter<int, 0> ring;
    RandomizedAgainstDeque(ring, seed, 4096);
  }
}

TEST(RingBufferTest, RandomizedPushPopMatchesDequeInline4) {
  for (uint64_t seed : {7u, 8u, 9u, 10u, 11u}) {
    RingAdapter<int, 4> ring;
    RandomizedAgainstDeque(ring, seed, 4096);
  }
}

TEST(RingBufferTest, RandomizedLifetimesBalanceExactly) {
  ASSERT_EQ(Tracked::live, 0);
  {
    RingAdapter<Tracked, 4> ring;
    RandomizedAgainstDeque(ring, 42, 4096);
    // Leave elements behind: the destructor must destroy them.
    for (int i = 0; i < 37; ++i) ring.push_back(Tracked(i));
    EXPECT_EQ(Tracked::live, 37);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(RingBufferTest, InlineToHeapGrowthPreservesOrderAcrossWrap) {
  // Park the head mid-way through the inline slots, then grow: the copy-out
  // must linearize the wrapped contents.
  RingBuffer<int, 4> ring;
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();
  ring.push_back(4);
  ring.push_back(5);  // head=2, wrapped: slots hold [4,5,2,3]
  EXPECT_EQ(ring.capacity(), 4u);
  ring.push_back(6);  // forces inline -> heap growth
  EXPECT_GE(ring.capacity(), 8u);
  for (int expect = 2; expect <= 6; ++expect) {
    ASSERT_EQ(ring.front(), expect);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBufferTest, ClearRetainsCapacityAndResetsHead) {
  RingBuffer<Tracked, 0> ring;
  for (int i = 0; i < 100; ++i) ring.push_back(Tracked(i));
  size_t grown = ring.capacity();
  EXPECT_GE(grown, 100u);
  ring.clear();
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(ring.capacity(), grown);
  for (int i = 0; i < 100; ++i) ring.push_back(Tracked(1000 + i));
  EXPECT_EQ(ring.capacity(), grown);  // no re-growth after clear()
  EXPECT_EQ(ring.front().value, 1000);
}

TEST(RingBufferTest, ReserveRoundsUpAndAvoidsLaterGrowth) {
  RingBuffer<int, 0> ring;
  ring.reserve(100);
  size_t cap = ring.capacity();
  EXPECT_GE(cap, 100u);
  EXPECT_EQ(cap & (cap - 1), 0u) << "capacity must stay a power of two";
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), cap);
  ring.reserve(50);  // shrinking reserve is a no-op
  EXPECT_EQ(ring.capacity(), cap);
}

}  // namespace
}  // namespace pdblb::sim
