// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for the buffer manager: LRU behavior, reservations, the FCFS
// memory queue, OLTP frame stealing and the memory-availability estimates.

#include <gtest/gtest.h>

#include "bufmgr/buffer_manager.h"
#include "iosim/disk.h"
#include "run_at.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"

namespace pdblb {
namespace {

struct Fixture {
  sim::Scheduler sched;
  sim::Resource cpu{sched, 1, "cpu"};
  CpuCosts costs;
  DiskConfig disk_config;
  BufferConfig buf_config;
  std::unique_ptr<DiskArray> disks;
  std::unique_ptr<BufferManager> buffer;

  explicit Fixture(int pages = 10) {
    buf_config.buffer_pages = pages;
    disks = std::make_unique<DiskArray>(sched, disk_config, costs, 20.0, cpu,
                                        "t");
    buffer =
        std::make_unique<BufferManager>(sched, buf_config, *disks, "buf");
  }
};

TEST(BufferTest, MissThenHit) {
  Fixture f;
  bool hit1 = true, hit2 = false;
  f.sched.Spawn([](BufferManager& b, bool* h1, bool* h2) -> sim::Task<> {
    *h1 = co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom);
    *h2 = co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom);
  }(*f.buffer, &hit1, &hit2));
  f.sched.Run();
  EXPECT_FALSE(hit1);
  EXPECT_TRUE(hit2);
  EXPECT_EQ(f.buffer->buffer_hits(), 1);
  EXPECT_EQ(f.buffer->buffer_misses(), 1);
}

TEST(BufferTest, LruEvictionAtCapacity) {
  Fixture f(4);
  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await b.Fetch(PageKey{1, i}, AccessPattern::kRandom);
    }
  }(*f.buffer));
  f.sched.Run();
  EXPECT_FALSE(f.buffer->IsResident(PageKey{1, 0}));  // LRU victim
  EXPECT_TRUE(f.buffer->IsResident(PageKey{1, 4}));
}

TEST(BufferTest, TouchRefreshesLruPosition) {
  Fixture f(4);
  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await b.Fetch(PageKey{1, i}, AccessPattern::kRandom);
    }
    co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom);  // refresh 0
    co_await b.Fetch(PageKey{1, 9}, AccessPattern::kRandom);  // evicts 1
  }(*f.buffer));
  f.sched.Run();
  EXPECT_TRUE(f.buffer->IsResident(PageKey{1, 0}));
  EXPECT_FALSE(f.buffer->IsResident(PageKey{1, 1}));
}

TEST(BufferTest, DirtyPageWrittenBackOnEviction) {
  Fixture f(2);
  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom);
    b.MarkDirty(PageKey{1, 0});
    co_await b.Fetch(PageKey{1, 1}, AccessPattern::kRandom);
    co_await b.Fetch(PageKey{1, 2}, AccessPattern::kRandom);  // evicts 0
  }(*f.buffer));
  f.sched.Run();
  EXPECT_EQ(f.buffer->dirty_writebacks(), 1);
  EXPECT_GE(f.disks->physical_writes(), 1);
}

TEST(BufferTest, TryReserveRespectsCapacity) {
  Fixture f(10);
  EXPECT_EQ(f.buffer->TryReserve(6), 6);
  EXPECT_EQ(f.buffer->reserved(), 6);
  EXPECT_EQ(f.buffer->TryReserve(6), 4);  // only 4 left
  EXPECT_EQ(f.buffer->TryReserve(1), 0);
  f.buffer->ReleaseReservation(10);
  EXPECT_EQ(f.buffer->reserved(), 0);
}

TEST(BufferTest, ReservationEvictsResidentPages) {
  Fixture f(4);
  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await b.Fetch(PageKey{1, i}, AccessPattern::kRandom);
    }
  }(*f.buffer));
  f.sched.Run();
  EXPECT_EQ(f.buffer->TryReserve(3), 3);
  // Only one frame may stay resident.
  int resident = 0;
  for (int i = 0; i < 4; ++i) {
    if (f.buffer->IsResident(PageKey{1, i})) ++resident;
  }
  EXPECT_EQ(resident, 1);
}

TEST(BufferTest, ReserveWaitQueuesFcfs) {
  Fixture f(10);
  std::vector<int> grants;
  auto waiter = [](BufferManager& b, int min, int want,
                   std::vector<int>* out) -> sim::Task<> {
    int got = co_await b.ReserveWait(min, want);
    out->push_back(got);
  };
  f.sched.Spawn(waiter(*f.buffer, 6, 8, &grants));   // gets 8 immediately
  f.sched.Spawn(waiter(*f.buffer, 5, 5, &grants));   // waits (only 2 free)
  f.sched.Spawn(waiter(*f.buffer, 1, 1, &grants));   // waits behind (FCFS)
  f.sched.RunUntil(1.0);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0], 8);

  sim::RunAt(f.sched, 2.0, [&] { f.buffer->ReleaseReservation(8); });
  f.sched.Run();
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_EQ(grants[1], 5);
  EXPECT_EQ(grants[2], 1);
}

TEST(BufferTest, MemoryQueueHeadBlocksLaterSmallRequests) {
  Fixture f(10);
  std::vector<int> order;
  auto waiter = [](BufferManager& b, int min, int id,
                   std::vector<int>* out) -> sim::Task<> {
    (void)co_await b.ReserveWait(min, min);
    out->push_back(id);
  };
  EXPECT_EQ(f.buffer->TryReserve(9), 9);  // 1 page free
  f.sched.Spawn(waiter(*f.buffer, 5, 1, &order));  // blocked
  f.sched.Spawn(waiter(*f.buffer, 1, 2, &order));  // would fit, but FCFS
  f.sched.RunUntil(1.0);
  EXPECT_TRUE(order.empty());
  sim::RunAt(f.sched, 2.0, [&] { f.buffer->ReleaseReservation(9); });
  f.sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/// Test double implementing MemoryVictim.
class FakeVictim : public MemoryVictim {
 public:
  explicit FakeVictim(int pages) : pages_(pages) {}
  int StealPages(int wanted) override {
    int got = std::min(wanted, pages_);
    pages_ -= got;
    stolen_ += got;
    return got;
  }
  int ReservedPages() const override { return pages_; }
  int stolen() const { return stolen_; }

 private:
  int pages_;
  int stolen_ = 0;
};

TEST(BufferTest, OltpStealsFromFattestVictim) {
  Fixture f(10);
  FakeVictim small(2), big(8);
  EXPECT_EQ(f.buffer->TryReserve(10), 10);  // all reserved (2 + 8)
  f.buffer->RegisterVictim(&small);
  f.buffer->RegisterVictim(&big);

  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom,
                     /*priority_oltp=*/true);
  }(*f.buffer));
  f.sched.Run();
  EXPECT_GE(big.stolen(), 1);
  EXPECT_EQ(small.stolen(), 0);
  EXPECT_GE(f.buffer->pages_stolen(), 1);
  EXPECT_TRUE(f.buffer->IsResident(PageKey{1, 0}));
}

TEST(BufferTest, NonPriorityFetchDoesNotSteal) {
  Fixture f(10);
  FakeVictim victim(10);
  EXPECT_EQ(f.buffer->TryReserve(10), 10);
  f.buffer->RegisterVictim(&victim);
  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom,
                     /*priority_oltp=*/false);
  }(*f.buffer));
  f.sched.Run();
  EXPECT_EQ(victim.stolen(), 0);
  // Page read but not cached: every frame is reserved.
  EXPECT_FALSE(f.buffer->IsResident(PageKey{1, 0}));
}

TEST(BufferTest, HotPagesRequireTwoTouches) {
  Fixture f(10);
  f.buf_config.working_set_window_ms = 1000.0;
  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom);  // one touch
    co_await b.Fetch(PageKey{1, 1}, AccessPattern::kRandom);
    co_await b.Fetch(PageKey{1, 1}, AccessPattern::kRandom);  // two touches
  }(*f.buffer));
  f.sched.Run();
  EXPECT_EQ(f.buffer->HotPages(), 1);
  EXPECT_EQ(f.buffer->TouchedPages(), 2);
}

TEST(BufferTest, AvailabilityEstimates) {
  Fixture f(10);
  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom);
    co_await b.Fetch(PageKey{1, 0}, AccessPattern::kRandom);  // hot
    co_await b.Fetch(PageKey{1, 1}, AccessPattern::kRandom);  // touched only
  }(*f.buffer));
  f.sched.Run();
  EXPECT_EQ(f.buffer->TryReserve(2), 2);
  // Reported: 10 - 2 reserved - 2 touched = 6.
  EXPECT_EQ(f.buffer->AvailablePages(), 6);
  // Grantable: 10 - 2 reserved - 1 hot = 7.
  EXPECT_EQ(f.buffer->GrantablePages(), 7);
  EXPECT_NEAR(f.buffer->MemoryUtilization(), 0.3, 1e-9);  // (2+1)/10
}

TEST(BufferTest, FetchRangeReadsMissingRunsOnly) {
  Fixture f(20);
  int64_t hits = -1;
  f.sched.Spawn([](BufferManager& b, int64_t* out) -> sim::Task<> {
    co_await b.Fetch(PageKey{1, 2}, AccessPattern::kRandom);  // pre-load
    *out = co_await b.FetchRange(PageKey{1, 0}, 8);
  }(*f.buffer, &hits));
  f.sched.Run();
  EXPECT_EQ(hits, 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(f.buffer->IsResident(PageKey{1, i})) << i;
  }
}

TEST(BufferTest, WorkingSetDecaysOverTime) {
  Fixture f(10);
  f.sched.Spawn([](BufferManager& b) -> sim::Task<> {
    co_await b.Fetch(PageKey{1, 5}, AccessPattern::kRandom);
    co_await b.Fetch(PageKey{1, 5}, AccessPattern::kRandom);
  }(*f.buffer));
  f.sched.Run();
  EXPECT_EQ(f.buffer->HotPages(), 1);
  // Advance time past the window: the page is no longer hot or touched.
  f.sched.RunUntil(10000.0);
  EXPECT_EQ(f.buffer->HotPages(), 0);
  EXPECT_EQ(f.buffer->TouchedPages(), 0);
}

}  // namespace
}  // namespace pdblb
