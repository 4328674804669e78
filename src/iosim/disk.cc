// Copyright 2026 the pdblb authors. MIT license.

#include "iosim/disk.h"

#include <algorithm>
#include <cassert>

namespace pdblb {
namespace {

// The retry budget for an injected I/O error, and the service charge of
// each reissue on the same spindle.
constexpr int kIoRetryLimit = 3;
constexpr SimTime kIoRetryPenaltyMs = 5.0;

// Use() is a frameless awaiter, not a Task; spawning it as a detached
// group member needs this thin coroutine wrapper.
sim::Task<> SpawnedUse(sim::Resource& res, SimTime duration) {
  co_await res.Use(duration);
}

}  // namespace

DiskArray::DiskArray(sim::Scheduler& sched, const DiskConfig& config,
                     const CpuCosts& costs, double mips, sim::Resource& cpu,
                     std::string name, sim::TraceTag tag)
    : sched_(sched), config_(config), costs_(costs), mips_(mips), cpu_(cpu),
      name_(std::move(name)), tag_(tag) {
  for (int i = 0; i < config_.disks_per_pe; ++i) {
    disks_.push_back(std::make_shared<sim::Resource>(
        sched_, 1, name_ + ".disk" + std::to_string(i), tag_));
  }
  controller_ =
      std::make_unique<sim::Resource>(sched_, 1, name_ + ".ctrl", tag_);
  log_disk_ = std::make_unique<sim::Resource>(sched_, 1, name_ + ".log", tag_);
}

DiskArray::DiskArray(sim::Scheduler& sched, const DiskConfig& config,
                     const CpuCosts& costs, double mips, sim::Resource& cpu,
                     std::string name, DiskArray& master, sim::TraceTag tag)
    : sched_(sched), config_(config), costs_(costs), mips_(mips), cpu_(cpu),
      name_(std::move(name)), tag_(tag), disks_(master.disks_) {
  controller_ =
      std::make_unique<sim::Resource>(sched_, 1, name_ + ".ctrl", tag_);
  log_disk_ = std::make_unique<sim::Resource>(sched_, 1, name_ + ".log", tag_);
}

sim::Resource& DiskArray::DiskFor(PageKey page) {
  size_t h = PageKeyHash{}(page);
  return *disks_[h % disks_.size()];
}

void DiskArray::ConfigureFaults(double error_rate, sim::Rng rng) {
  assert(error_rate >= 0.0 && error_rate <= 1.0);
  io_error_rate_ = error_rate;
  fault_rng_ = rng;
}

void DiskArray::SetServiceMultiplier(double m) {
  assert(m >= 1.0);
  service_multiplier_ = m;
}

double DiskArray::Scaled(double service_ms) {
  if (service_multiplier_ == 1.0) return service_ms;
  double scaled = service_ms * service_multiplier_;
  slow_disk_extra_ms_ += scaled - service_ms;
  return scaled;
}

sim::Task<> DiskArray::InjectedRetries(sim::Resource& disk) {
  // Each failed draw is one observed error; each reissue pays the retry
  // penalty on the same spindle.  The chain is bounded per access, and a
  // chain that runs out of budget surfaces its last error unretried.
  int chain = 0;
  while (fault_rng_->Uniform() < io_error_rate_) {
    ++io_errors_;
    if (chain >= kIoRetryLimit) break;
    ++chain;
    ++io_retries_;
    co_await disk.Use(Scaled(kIoRetryPenaltyMs));
  }
}

bool DiskArray::CacheHit(PageKey page) {
  const int32_t slot = cache_.Lookup(page);
  if (slot < 0) return false;
  cache_.Touch(slot, sched_.Now());
  return true;
}

void DiskArray::CacheInsert(PageKey page) {
  if (cache_.capacity() == 0 || CacheHit(page)) return;
  if (cache_.full()) (void)cache_.EvictVictim();
  cache_.Admit(page, sched_.Now());
}

sim::Task<> DiskArray::Read(PageKey page, AccessPattern pattern) {
  ++logical_reads_;
  co_await cpu_.Use(InstructionsToMs(costs_.io_overhead, mips_));

  if (CacheHit(page)) {
    ++cache_hits_;
    co_await controller_->Use(config_.controller_time_per_page_ms);
    co_await sched_.Delay(config_.transmission_time_per_page_ms, tag_);
    co_return;
  }

  int fetch = pattern == AccessPattern::kSequential ? config_.prefetch_pages : 1;
  ++physical_reads_;
  co_await DiskFor(page).Use(Scaled(config_.avg_access_time_ms +
                                    config_.prefetch_delay_per_page_ms *
                                        fetch));
  if (fault_rng_) co_await InjectedRetries(DiskFor(page));
  co_await controller_->Use(config_.controller_time_per_page_ms * fetch);
  for (int i = 0; i < fetch; ++i) {
    CacheInsert(PageKey{page.relation_id, page.page_no + i});
  }
  co_await sched_.Delay(config_.transmission_time_per_page_ms, tag_);
}

sim::Task<> DiskArray::ReadStriped(PageKey first, int64_t count) {
  if (count <= 0) co_return;
  // One CPU I/O-overhead charge per prefetch batch, paid by the issuer.
  sim::TaskGroup batches(sched_);
  int64_t i = 0;
  while (i < count) {
    // Skip cached pages (controller service only).
    PageKey page{first.relation_id, first.page_no + i};
    if (CacheHit(page)) {
      ++cache_hits_;
      ++logical_reads_;
      batches.Spawn(
          SpawnedUse(*controller_, config_.controller_time_per_page_ms));
      ++i;
      continue;
    }
    int fetch = static_cast<int>(
        std::min<int64_t>(config_.prefetch_pages, count - i));
    logical_reads_ += fetch;
    ++physical_reads_;
    batches.Spawn(ReadBatchFromDisk(page, fetch));
    for (int k = 0; k < fetch; ++k) {
      CacheInsert(PageKey{page.relation_id, page.page_no + k});
    }
    i += fetch;
  }
  co_await batches.Wait();
  co_await sched_.Delay(config_.transmission_time_per_page_ms, tag_);
}

sim::Task<> DiskArray::ReadBatchFromDisk(PageKey first, int pages) {
  co_await cpu_.Use(InstructionsToMs(costs_.io_overhead, mips_));
  co_await DiskFor(first).Use(Scaled(config_.avg_access_time_ms +
                                     config_.prefetch_delay_per_page_ms *
                                         pages));
  if (fault_rng_) co_await InjectedRetries(DiskFor(first));
  co_await controller_->Use(config_.controller_time_per_page_ms * pages);
}

sim::Task<> DiskArray::WriteBatch(PageKey first, int count) {
  assert(count >= 1);
  co_await cpu_.Use(InstructionsToMs(costs_.io_overhead, mips_));
  ++physical_writes_;
  co_await sched_.Delay(config_.transmission_time_per_page_ms * count, tag_);
  co_await controller_->Use(config_.controller_time_per_page_ms * count);
  co_await DiskFor(first).Use(Scaled(config_.avg_access_time_ms +
                                     config_.prefetch_delay_per_page_ms *
                                         count));
  if (fault_rng_) co_await InjectedRetries(DiskFor(first));
  for (int i = 0; i < count; ++i) {
    CacheInsert(PageKey{first.relation_id, first.page_no + i});
  }
}

sim::Task<> DiskArray::WriteRandom(PageKey page) {
  return WriteBatch(page, 1);
}

sim::Task<> DiskArray::LogWrite() {
  co_await cpu_.Use(InstructionsToMs(costs_.io_overhead, mips_));
  co_await log_disk_->Use(Scaled(config_.log_write_ms));
  if (fault_rng_) co_await InjectedRetries(*log_disk_);
}

double DiskArray::DataDiskBusyIntegral() const {
  double sum = 0.0;
  for (const auto& d : disks_) sum += d->BusyIntegral();
  return sum;
}

void DiskArray::ResetStats() {
  for (auto& d : disks_) d->ResetStats();
  controller_->ResetStats();
  log_disk_->ResetStats();
  physical_reads_ = 0;
  physical_writes_ = 0;
  cache_hits_ = 0;
  logical_reads_ = 0;
  io_errors_ = 0;
  io_retries_ = 0;
  slow_disk_extra_ms_ = 0.0;
}

}  // namespace pdblb
