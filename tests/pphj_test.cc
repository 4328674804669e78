// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for the Partially Preemptible Hash Join: partition sizing,
// in-memory operation, overflow spilling, deferred probing, memory stealing
// and suspension/resumption through the memory queue.

#include <gtest/gtest.h>

#include <memory>

#include "bufmgr/buffer_manager.h"
#include "iosim/disk.h"
#include "join/pphj.h"
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

  explicit Fixture(int buffer_pages = 50) {
    buf_config.buffer_pages = buffer_pages;
    disks = std::make_unique<DiskArray>(sched, disk_config, costs, 20.0, cpu,
                                        "t");
    buffer =
        std::make_unique<BufferManager>(sched, buf_config, *disks, "buf");
  }
};

/// Drives a full join at one PE: build with `inner` tuples in `batches`,
/// probe with `outer` tuples, complete, release.
sim::Task<> DriveJoin(Pphj& join, int64_t inner, int64_t outer,
                      int batches) {
  co_await join.AcquireMemory();
  for (int i = 0; i < batches; ++i) {
    co_await join.InsertInnerBatch(inner / batches);
  }
  for (int i = 0; i < batches; ++i) {
    co_await join.ProbeBatch(outer / batches);
  }
  co_await join.CompleteProbe();
  join.Release();
}

TEST(PphjTest, PartitionCountIsCeilSqrtFb) {
  Fixture f;
  // 2500 tuples -> 132 pages with fudge: ceil(sqrt(1.05 * 132)) = 12.
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 2500, .want_pages = 40});
  EXPECT_EQ(join.num_partitions(), 12);
  EXPECT_EQ(join.min_pages(), 12);
}

TEST(PphjTest, MinPagesCappedByBufferCapacity) {
  Fixture f(5);
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 2500, .want_pages = 40});
  EXPECT_EQ(join.min_pages(), 5);
}

TEST(PphjTest, FullyResidentJoinDoesNoTempIo) {
  Fixture f(50);
  // 500 tuples are 27 pages with fudge: they fit in 30.
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 500, .want_pages = 30});
  f.sched.Spawn(DriveJoin(join, 500, 2000, 5));
  f.sched.Run();
  EXPECT_EQ(join.temp_pages_written(), 0);
  EXPECT_EQ(join.temp_pages_read(), 0);
  EXPECT_EQ(join.direct_probes(), 2000);
  EXPECT_EQ(join.deferred_probes(), 0);
  EXPECT_EQ(join.resident_partitions(), join.num_partitions());
  EXPECT_EQ(f.buffer->reserved(), 0);  // released
}

TEST(PphjTest, OverflowSpillsAndDefersProportionally) {
  Fixture f(50);
  // Inner needs ~53 pages but only ~20 are reserved: must spill.
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 1000, .want_pages = 20});
  f.sched.Spawn(DriveJoin(join, 1000, 4000, 10));
  f.sched.Run();
  EXPECT_GT(join.temp_pages_written(), 0);
  EXPECT_GT(join.temp_pages_read(), 0);
  EXPECT_GT(join.deferred_probes(), 0);
  EXPECT_GT(join.direct_probes(), 0);
  // Everything must be accounted: direct + deferred = outer input.
  EXPECT_EQ(join.direct_probes() + join.deferred_probes(), 4000);
}

TEST(PphjTest, ResidentFractionTracksMemory) {
  Fixture f(50);
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 1000, .want_pages = 10});
  f.sched.Spawn([](Pphj& j) -> sim::Task<> {
    co_await j.AcquireMemory();
    co_await j.InsertInnerBatch(1000);
  }(join));
  f.sched.Run();
  EXPECT_LT(join.ResidentFraction(), 1.0);
  EXPECT_GT(join.ResidentFraction(), 0.0);
}

TEST(PphjTest, StealSpillsPartitionsAndReportsPages) {
  Fixture f(50);
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 500, .want_pages = 30});
  f.sched.Spawn([](Pphj& j) -> sim::Task<> {
    co_await j.AcquireMemory();
    co_await j.InsertInnerBatch(500);
  }(join));
  f.sched.Run();
  int before = join.ReservedPages();
  ASSERT_GT(before, 10);
  int got = join.StealPages(10);
  EXPECT_GE(got, 10);
  EXPECT_EQ(join.ReservedPages(), before - got);
  EXPECT_GT(join.temp_pages_written(), 0);
  EXPECT_LT(join.resident_partitions(), join.num_partitions());
  join.Release();
}

TEST(PphjTest, StealBelowMinimumSuspendsUntilMemoryReturns) {
  Fixture f(50);
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 500, .want_pages = 30});
  bool insert_done = false;
  f.sched.Spawn([](Pphj& j, BufferManager& buf, bool* done) -> sim::Task<> {
    co_await j.AcquireMemory();
    co_await j.InsertInnerBatch(250);
    // Exhaust the rest of the pool, then steal the join's entire working
    // space (StealPages is called directly to emulate the OLTP steal path;
    // the pool keeps believing those frames are reserved).
    (void)buf.TryReserve(buf.capacity());
    int got = j.StealPages(1000);
    EXPECT_GT(got, 0);
    EXPECT_LT(j.ReservedPages(), j.min_pages());
    co_await j.InsertInnerBatch(250);  // suspends until memory is granted
    *done = true;
  }(join, *f.buffer, &insert_done));
  f.sched.RunUntil(100.0);
  EXPECT_FALSE(insert_done);
  // Memory comes back (another join finished): the suspended join resumes.
  f.buffer->ReleaseReservation(20);
  f.sched.Run();
  EXPECT_TRUE(insert_done);
  join.Release();
}

TEST(PphjTest, CompleteProbeJoinsSpilledPartitions) {
  Fixture f(50);
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 1000, .want_pages = 15});
  f.sched.Spawn(DriveJoin(join, 1000, 1000, 4));
  f.sched.Run();
  // Spilled inner pages and deferred outer pages were re-read.  Writes may
  // exceed reads because per-batch appends round up to whole pages.
  EXPECT_GT(join.temp_pages_read(), 0);
  EXPECT_LE(join.temp_pages_read(), join.temp_pages_written());
}

TEST(PphjTest, ReleaseIsIdempotent) {
  Fixture f(50);
  auto join = std::make_unique<Pphj>(
      f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
      LocalJoinParams{.expected_inner_tuples = 100, .want_pages = 10});
  f.sched.Spawn([](Pphj& j) -> sim::Task<> {
    co_await j.AcquireMemory();
  }(*join));
  f.sched.Run();
  EXPECT_GT(f.buffer->reserved(), 0);
  join->Release();
  EXPECT_EQ(f.buffer->reserved(), 0);
  join->Release();  // second release must be a no-op
  EXPECT_EQ(f.buffer->reserved(), 0);
  join.reset();     // destructor also calls Release
  EXPECT_EQ(f.buffer->reserved(), 0);
}

TEST(PphjTest, TryGrowClaimsFreedMemory) {
  Fixture f(50);
  // First join grabs most of the buffer.
  EXPECT_EQ(f.buffer->TryReserve(40), 40);
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 1000, .want_pages = 30});
  f.sched.Spawn([](Pphj& j) -> sim::Task<> {
    co_await j.AcquireMemory();
    co_await j.InsertInnerBatch(500);
  }(join));
  f.sched.Run();
  int before = join.ReservedPages();
  EXPECT_LE(before, 10);
  // The other reservation goes away; growth picks up the slack.
  f.buffer->ReleaseReservation(40);
  join.TryGrow();
  EXPECT_GT(join.ReservedPages(), before);
  join.Release();
}

TEST(PphjTest, AcquireWaitsInMemoryQueue) {
  Fixture f(20);
  EXPECT_EQ(f.buffer->TryReserve(20), 20);  // buffer exhausted
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 200, .want_pages = 10});
  bool acquired = false;
  f.sched.Spawn([](Pphj& j, bool* out) -> sim::Task<> {
    co_await j.AcquireMemory();
    *out = true;
  }(join, &acquired));
  f.sched.RunUntil(10.0);
  EXPECT_FALSE(acquired);
  f.buffer->ReleaseReservation(20);
  f.sched.Run();
  EXPECT_TRUE(acquired);
  join.Release();
}

// Property sweep: tuple conservation and release cleanliness across memory
// pressures.
class PphjPressureTest : public ::testing::TestWithParam<int> {};

TEST_P(PphjPressureTest, ConservesTuplesAndMemory) {
  int want = GetParam();
  Fixture f(50);
  Pphj join(f.sched, *f.buffer, *f.disks, f.cpu, f.costs, 20.0,
            {.expected_inner_tuples = 2000, .want_pages = want});
  f.sched.Spawn(DriveJoin(join, 2000, 8000, 8));
  f.sched.Run();
  EXPECT_EQ(join.inner_tuples_received(), 2000);
  EXPECT_EQ(join.direct_probes() + join.deferred_probes(), 8000);
  EXPECT_EQ(f.buffer->reserved(), 0);
  EXPECT_EQ(join.ReservedPages(), 0);
}

INSTANTIATE_TEST_SUITE_P(MemoryPressure, PphjPressureTest,
                         ::testing::Values(2, 5, 10, 20, 40, 50, 80, 110));

}  // namespace
}  // namespace pdblb
