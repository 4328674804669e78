// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for the disk subsystem: the paper's timing parameters,
// prefetching, the controller LRU cache, striping and the log disk.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>

#include "iosim/disk.h"
#include "simkern/resource.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"

namespace pdblb {
namespace {

struct Fixture {
  sim::Scheduler sched;
  sim::Resource cpu{sched, 1, "cpu"};
  CpuCosts costs;
  DiskConfig config;

  std::unique_ptr<DiskArray> MakeDisks() {
    return std::make_unique<DiskArray>(sched, config, costs, 20.0, cpu, "t");
  }
};

TEST(DiskTest, RandomReadTiming) {
  Fixture f;
  auto disks = f.MakeDisks();
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, DiskArray& d, SimTime* out) -> sim::Task<> {
    co_await d.Read(PageKey{1, 0}, AccessPattern::kRandom);
    *out = fx.sched.Now();
  }(f, *disks, &end));
  f.sched.Run();
  // io_overhead CPU (3000/20MIPS = 0.15) + disk (15 + 1*1) + controller (1)
  // + transmission (0.4) = 17.55 ms.
  EXPECT_NEAR(end, 17.55, 1e-9);
  EXPECT_EQ(disks->physical_reads(), 1);
  EXPECT_EQ(disks->cache_hits(), 0);
}

TEST(DiskTest, SequentialReadPrefetchesFourPages) {
  Fixture f;
  auto disks = f.MakeDisks();
  SimTime end = -1;
  f.sched.Spawn([](DiskArray& d, sim::Scheduler& s, SimTime* out) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await d.Read(PageKey{1, i}, AccessPattern::kSequential);
    }
    *out = s.Now();
  }(*disks, f.sched, &end));
  f.sched.Run();
  // First read: 0.15 + (15+4) + 4*1 + 0.4 = 23.55; next three are cache
  // hits: 0.15 + 1 + 0.4 = 1.55 each.  Total 28.2 ms.
  EXPECT_NEAR(end, 23.55 + 3 * 1.55, 1e-9);
  EXPECT_EQ(disks->physical_reads(), 1);  // one physical I/O for 4 pages
  EXPECT_EQ(disks->cache_hits(), 3);
  EXPECT_EQ(disks->logical_reads(), 4);
}

TEST(DiskTest, PaperPrefetchAnchor19ms) {
  // "For a prefetching of 4 pages, the average disk access time is 19 ms."
  Fixture f;
  auto disks = f.MakeDisks();
  (void)disks;
  EXPECT_DOUBLE_EQ(
      f.config.avg_access_time_ms + 4 * f.config.prefetch_delay_per_page_ms,
      19.0);
}

TEST(DiskTest, CacheEvictsLru) {
  Fixture f;
  f.config.disk_cache_pages = 4;
  f.config.prefetch_pages = 1;
  auto disks = f.MakeDisks();
  f.sched.Spawn([](DiskArray& d) -> sim::Task<> {
    // Fill cache with pages 0..3, then read 4 (evicts 0), then 0 again.
    for (int i = 0; i < 5; ++i) {
      co_await d.Read(PageKey{1, i}, AccessPattern::kRandom);
    }
    co_await d.Read(PageKey{1, 0}, AccessPattern::kRandom);
  }(*disks));
  f.sched.Run();
  EXPECT_EQ(disks->physical_reads(), 6);  // page 0 had to be re-read
  EXPECT_EQ(disks->cache_hits(), 0);
}

TEST(DiskTest, CacheHitAvoidsDiskAccess) {
  Fixture f;
  f.config.prefetch_pages = 1;
  auto disks = f.MakeDisks();
  f.sched.Spawn([](DiskArray& d) -> sim::Task<> {
    co_await d.Read(PageKey{1, 7}, AccessPattern::kRandom);
    co_await d.Read(PageKey{1, 7}, AccessPattern::kRandom);
  }(*disks));
  f.sched.Run();
  EXPECT_EQ(disks->physical_reads(), 1);
  EXPECT_EQ(disks->cache_hits(), 1);
}

TEST(DiskTest, StripedReadUsesMultipleDisks) {
  Fixture f;
  f.config.disk_cache_pages = 0;  // force physical I/O
  auto disks = f.MakeDisks();
  SimTime end = -1;
  f.sched.Spawn([](DiskArray& d, sim::Scheduler& s, SimTime* out) -> sim::Task<> {
    co_await d.ReadStriped(PageKey{1, 0}, 40);  // 10 batches of 4
    *out = s.Now();
  }(*disks, f.sched, &end));
  f.sched.Run();
  // 10 batches in parallel across 10 disks: wall time far below the serial
  // 10 * 19 ms; bounded below by one batch (19) + controller serialization
  // (40 pages * 1 ms).
  EXPECT_EQ(disks->physical_reads(), 10);
  EXPECT_LT(end, 80.0);
  EXPECT_GE(end, 19.0);
}

TEST(DiskTest, StripedReadServesCachedPagesCheaply) {
  Fixture f;
  auto disks = f.MakeDisks();
  SimTime first = -1, second = -1;
  f.sched.Spawn([](DiskArray& d, sim::Scheduler& s, SimTime* t1,
                   SimTime* t2) -> sim::Task<> {
    co_await d.ReadStriped(PageKey{1, 0}, 16);
    *t1 = s.Now();
    co_await d.ReadStriped(PageKey{1, 0}, 16);  // all cached now
    *t2 = s.Now() - *t1;
  }(*disks, f.sched, &first, &second));
  f.sched.Run();
  EXPECT_LT(second, first);
  EXPECT_EQ(disks->physical_reads(), 4);
}

TEST(DiskTest, WriteBatchTimingAndCaching) {
  Fixture f;
  auto disks = f.MakeDisks();
  f.sched.Spawn([](DiskArray& d) -> sim::Task<> {
    co_await d.WriteBatch(PageKey{-1, 0}, 4);
    // Reading back the just-written pages hits the controller cache.
    co_await d.Read(PageKey{-1, 2}, AccessPattern::kSequential);
  }(*disks));
  f.sched.Run();
  EXPECT_EQ(disks->physical_writes(), 1);
  EXPECT_EQ(disks->cache_hits(), 1);
}

TEST(DiskTest, LogWriteUsesDedicatedDisk) {
  Fixture f;
  auto disks = f.MakeDisks();
  SimTime end = -1;
  f.sched.Spawn([](DiskArray& d, sim::Scheduler& s, SimTime* out) -> sim::Task<> {
    co_await d.LogWrite();
    *out = s.Now();
  }(*disks, f.sched, &end));
  f.sched.Run();
  EXPECT_NEAR(end, 0.15 + 5.0, 1e-9);  // CPU overhead + log append
  EXPECT_EQ(disks->physical_reads(), 0);
  EXPECT_DOUBLE_EQ(disks->DataDiskBusyIntegral(), 0.0);  // log disk separate
}

TEST(DiskTest, UtilizationAccounting) {
  Fixture f;
  f.config.disks_per_pe = 2;
  f.config.disk_cache_pages = 0;
  f.config.prefetch_pages = 1;
  auto disks = f.MakeDisks();
  f.sched.Spawn([](DiskArray& d) -> sim::Task<> {
    co_await d.Read(PageKey{1, 0}, AccessPattern::kRandom);
  }(*disks));
  f.sched.Run();
  // One disk busy 16 ms (15 + 1 per page) out of ~17.55 total on a 2-disk
  // array.  The control node's report differences this integral over its
  // window (Cluster::ReportAllPes).
  EXPECT_NEAR(disks->DataDiskBusyIntegral(), 16.0, 1e-9);
  const double util = disks->DataDiskBusyIntegral() /
                      (f.sched.Now() * static_cast<double>(disks->num_disks()));
  EXPECT_GT(util, 0.3);
  EXPECT_LT(util, 0.5);
  disks->ResetStats();
  EXPECT_EQ(disks->physical_reads(), 0);
  // The integral runs on across a reset; only its deltas are read.
  EXPECT_NEAR(disks->DataDiskBusyIntegral(), 16.0, 1e-9);
}

// Parameterized: striped read completes all pages for various counts.
class StripedReadTest : public ::testing::TestWithParam<int> {};

TEST_P(StripedReadTest, ReadsAllPages) {
  Fixture f;
  f.config.disk_cache_pages = 0;
  auto disks = f.MakeDisks();
  int n = GetParam();
  f.sched.Spawn([](DiskArray& d, int count) -> sim::Task<> {
    co_await d.ReadStriped(PageKey{1, 0}, count);
  }(*disks, n));
  f.sched.Run();
  EXPECT_EQ(disks->logical_reads(), n);
  int expected_batches = (n + f.config.prefetch_pages - 1) /
                         f.config.prefetch_pages;
  EXPECT_EQ(disks->physical_reads(), expected_batches);
}

INSTANTIATE_TEST_SUITE_P(Counts, StripedReadTest,
                         ::testing::Values(1, 3, 4, 5, 16, 17, 63, 200));

// --- controller cache against a reference model ------------------------------
// The controller cache is a FrameTable with the LRU policy.  The model is a
// deliberately naive LRU sharing no code with it — a std::list in recency
// order (front = most recent), searched linearly — and predicts, for every
// DiskArray call, how many cache hits and physical reads it adds.

class LruCacheModel {
 public:
  explicit LruCacheModel(int capacity) : capacity_(capacity) {}

  /// A page request served by the controller: true on a hit (which
  /// refreshes the page).
  bool Hit(PageKey page) {
    auto it = std::find(lru_.begin(), lru_.end(), page);
    if (it == lru_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it);
    return true;
  }

  /// A page read or written through the controller enters the cache.
  void Insert(PageKey page) {
    if (capacity_ <= 0 || Hit(page)) return;
    lru_.push_front(page);
    if (static_cast<int>(lru_.size()) > capacity_) lru_.pop_back();
  }

 private:
  int capacity_;
  std::list<PageKey> lru_;
};

struct IoDelta {
  int64_t hits = 0;
  int64_t physical_reads = 0;
};

// Drives `ops` seeded calls through one DiskArray, one at a time, checking
// each call's cache-hit and physical-read deltas against the model.
sim::Task<> CacheTrace(DiskArray& disks, LruCacheModel& model,
                       const DiskConfig& config, uint64_t seed, int ops,
                       int* checked) {
  sim::Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    // Two relations of 24 pages each: a working set a little larger than
    // the cache, so the trace mixes hits, prefetch hits and evictions.
    const PageKey page{static_cast<int32_t>(rng.UniformInt(1, 2)),
                       rng.UniformInt(0, 23)};
    const double kind = rng.Uniform();
    IoDelta want;
    const int64_t hits0 = disks.cache_hits();
    const int64_t reads0 = disks.physical_reads();
    if (kind < 0.55) {
      const bool sequential = kind >= 0.3;
      if (model.Hit(page)) {
        want.hits = 1;
      } else {
        want.physical_reads = 1;
        const int fetch = sequential ? config.prefetch_pages : 1;
        for (int i = 0; i < fetch; ++i) {
          model.Insert(PageKey{page.relation_id, page.page_no + i});
        }
      }
      co_await disks.Read(page, sequential ? AccessPattern::kSequential
                                           : AccessPattern::kRandom);
    } else if (kind < 0.8) {
      const int64_t count = rng.UniformInt(1, 12);
      for (int64_t i = 0; i < count;) {
        const PageKey p{page.relation_id, page.page_no + i};
        if (model.Hit(p)) {
          ++want.hits;
          ++i;
          continue;
        }
        const int64_t fetch =
            std::min<int64_t>(config.prefetch_pages, count - i);
        ++want.physical_reads;
        for (int64_t k = 0; k < fetch; ++k) {
          model.Insert(PageKey{p.relation_id, p.page_no + k});
        }
        i += fetch;
      }
      co_await disks.ReadStriped(page, count);
    } else {
      const int count = static_cast<int>(rng.UniformInt(1, 6));
      for (int i = 0; i < count; ++i) {
        model.Insert(PageKey{page.relation_id, page.page_no + i});
      }
      co_await disks.WriteBatch(page, count);
    }
    EXPECT_EQ(disks.cache_hits() - hits0, want.hits) << "op " << op;
    EXPECT_EQ(disks.physical_reads() - reads0, want.physical_reads)
        << "op " << op;
    ++*checked;
  }
}

TEST(DiskCacheModelTest, MatchesListLruOnSeededTraces) {
  for (int capacity : {1, 7, 16, 40}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message()
                   << "capacity " << capacity << " seed " << seed);
      Fixture f;
      f.config.disk_cache_pages = capacity;
      auto disks = f.MakeDisks();
      LruCacheModel model(capacity);
      int checked = 0;
      f.sched.Spawn(
          CacheTrace(*disks, model, f.config, seed, 1500, &checked));
      f.sched.Run();
      ASSERT_EQ(checked, 1500);
      EXPECT_GT(disks->physical_reads(), 100);
      if (capacity >= 16) {
        EXPECT_GT(disks->cache_hits(), 100);
      }
    }
  }
}

}  // namespace
}  // namespace pdblb
