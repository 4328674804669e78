// Copyright 2026 the pdblb authors. MIT license.

#include "join/sort_merge.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "join/pphj.h"

namespace pdblb {

namespace {

int64_t CeilLog2(int64_t n) {
  int64_t levels = 0;
  while ((int64_t{1} << levels) < n) ++levels;
  return levels;
}

}  // namespace

SortMergeJoin::SortMergeJoin(sim::Scheduler& sched, BufferManager& buffer,
                             DiskArray& disks, sim::Resource& cpu,
                             const CpuCosts& costs, double mips,
                             LocalJoinParams params)
    : sched_(sched), buffer_(buffer), disks_(disks), cpu_(cpu), costs_(costs),
      mips_(mips), params_(params) {
  // Merging needs at least two input runs plus one output page.
  min_pages_ = std::min(3, buffer_.capacity());
}

SortMergeJoin::~SortMergeJoin() { Release(); }

int SortMergeJoin::PagesForTuples(int64_t tuples) const {
  if (tuples <= 0) return 0;
  return static_cast<int>((tuples + params_.blocking_factor - 1) /
                          params_.blocking_factor);
}

int64_t SortMergeJoin::RunGenInstrPerTuple() const {
  int64_t run_tuples = static_cast<int64_t>(reserved_pages_) *
                       static_cast<int64_t>(params_.blocking_factor);
  return costs_.read_tuple +
         costs_.sort_compare * CeilLog2(std::max<int64_t>(2, run_tuples));
}

sim::Task<> SortMergeJoin::AcquireMemory() {
  assert(!acquired_);
  int want = std::min(std::max(params_.want_pages, min_pages_),
                      buffer_.capacity());
  reserved_pages_ = co_await buffer_.ReserveWait(min_pages_, want);
  acquired_ = true;
  // Deliberately *not* registered as a MemoryVictim: classic sort-merge
  // holds its working space until the join finishes.
}

void SortMergeJoin::SpillRun(int pages) {
  if (pages <= 0) return;
  ++spilled_runs_;
  spilled_pages_ += pages;
  temp_pages_written_ += pages;
  PageKey first{params_.temp_relation_id, next_temp_page_};
  next_temp_page_ += pages;
  // Asynchronous sequential write of the sorted run.
  sched_.Spawn(disks_.WriteBatch(first, pages));
}

sim::Task<> SortMergeJoin::ConsumeBatch(int64_t tuples, int64_t* received,
                                        int64_t* buffered_tuples) {
  assert(acquired_);
  *received += tuples;
  co_await cpu_.Use(InstructionsToMs(tuples * RunGenInstrPerTuple(), mips_));
  *buffered_tuples += tuples;
  // Spill full runs; the last (possibly partial) run stays in memory until
  // we know whether everything fits.
  int64_t run_tuples = static_cast<int64_t>(reserved_pages_) *
                       static_cast<int64_t>(params_.blocking_factor);
  while (*buffered_tuples > run_tuples) {
    // The other input's buffered run shares the working space: if both
    // sides hold data, half the space each.
    int64_t other = (buffered_tuples == &inner_buffered_) ? outer_buffered_
                                                          : inner_buffered_;
    int64_t capacity = other > 0 ? run_tuples / 2 : run_tuples;
    capacity = std::max<int64_t>(capacity,
                                 params_.blocking_factor);  // >= 1 page
    if (*buffered_tuples <= capacity) break;
    SpillRun(PagesForTuples(capacity));
    *buffered_tuples -= capacity;
  }
}

sim::Task<> SortMergeJoin::InsertInnerBatch(int64_t tuples) {
  return ConsumeBatch(tuples, &inner_received_, &inner_buffered_);
}

sim::Task<> SortMergeJoin::ProbeBatch(int64_t tuples) {
  return ConsumeBatch(tuples, &outer_received_, &outer_buffered_);
}

sim::Task<> SortMergeJoin::CompleteProbe() {
  assert(acquired_);
  const int64_t total_tuples = inner_received_ + outer_received_;

  if (spilled_runs_ > 0) {
    // The buffered partial runs must be spilled too; the merge needs the
    // working space for its input buffers.
    if (inner_buffered_ > 0) SpillRun(PagesForTuples(inner_buffered_));
    if (outer_buffered_ > 0) SpillRun(PagesForTuples(outer_buffered_));
    inner_buffered_ = outer_buffered_ = 0;

    // Multi-pass merge until the runs fit the merge fan-in (one page per
    // input run plus one output page).
    int fan_in = std::max(2, reserved_pages_ - 1);
    int runs = spilled_runs_;
    while (runs > fan_in) {
      ++extra_merge_passes_;
      // One full pass: read everything, merge, write everything back.
      co_await disks_.ReadStriped(PageKey{params_.temp_relation_id, 0},
                                  spilled_pages_);
      temp_pages_read_ += spilled_pages_;
      temp_pages_written_ += spilled_pages_;
      sched_.Spawn(disks_.WriteBatch(
          PageKey{params_.temp_relation_id, next_temp_page_},
          static_cast<int>(spilled_pages_)));
      next_temp_page_ += spilled_pages_;
      co_await cpu_.Use(InstructionsToMs(
          total_tuples * costs_.sort_compare * CeilLog2(fan_in), mips_));
      runs = (runs + fan_in - 1) / fan_in;
    }

    // Final merge pass feeds the merge-join directly.
    co_await disks_.ReadStriped(PageKey{params_.temp_relation_id, 0},
                                spilled_pages_);
    temp_pages_read_ += spilled_pages_;
    co_await cpu_.Use(InstructionsToMs(
        total_tuples * costs_.sort_compare *
            CeilLog2(std::max(2, std::min(runs, fan_in))),
        mips_));
  }

  // Merge-join of the two sorted streams: one comparison per input tuple.
  co_await cpu_.Use(
      InstructionsToMs(total_tuples * costs_.sort_compare, mips_));
}

void SortMergeJoin::Release() {
  if (!acquired_ || released_) return;
  released_ = true;
  // See Pphj::Release: no reservation accounting at scheduler teardown.
  if (sched_.tearing_down()) return;
  buffer_.ReleaseReservation(reserved_pages_);
  reserved_pages_ = 0;
}

// ----------------------------------------------------------------- factory

std::unique_ptr<LocalJoin> CreateLocalJoin(
    LocalJoinMethod method, sim::Scheduler& sched, BufferManager& buffer,
    DiskArray& disks, sim::Resource& cpu, const CpuCosts& costs, double mips,
    const LocalJoinParams& params) {
  switch (method) {
    case LocalJoinMethod::kSortMerge:
      return std::make_unique<SortMergeJoin>(sched, buffer, disks, cpu, costs,
                                             mips, params);
    case LocalJoinMethod::kPPHJ:
      break;
  }
  return std::make_unique<Pphj>(sched, buffer, disks, cpu, costs, mips,
                                params);
}

}  // namespace pdblb
