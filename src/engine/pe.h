// Copyright 2026 the pdblb authors. MIT license.
//
// One processing element (PE) of the Shared Nothing system: CPU server(s),
// disk array, buffer manager, lock manager and the transaction manager's
// admission control (multiprogramming level with an input queue).

#ifndef PDBLB_ENGINE_PE_H_
#define PDBLB_ENGINE_PE_H_

#include <memory>
#include <string>

#include "bufmgr/buffer_manager.h"
#include "common/config.h"
#include "iosim/disk.h"
#include "lockmgr/lock_manager.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"

namespace pdblb {

class ProcessingElement {
 public:
  /// `shared_disks`: the global spindle pool in Shared Disk mode (this PE
  /// gets a local storage-adapter facade onto it); nullptr for Shared
  /// Nothing (this PE owns its disks).
  ProcessingElement(sim::Scheduler& sched, const SystemConfig& config,
                    PeId id, DiskArray* shared_disks = nullptr)
      : id_(id),
        cpu_(sched, config.cpus_per_pe, "pe" + std::to_string(id) + ".cpu",
             sim::TraceTag(sim::TraceSubsystem::kCpu,
                           static_cast<uint16_t>(id))),
        disks_(shared_disks == nullptr
                   ? std::make_unique<DiskArray>(
                         sched, config.disk, config.costs, config.mips_per_pe,
                         cpu_, "pe" + std::to_string(id),
                         sim::TraceTag(sim::TraceSubsystem::kDisk,
                                       static_cast<uint16_t>(id)))
                   : std::make_unique<DiskArray>(
                         sched, config.disk, config.costs, config.mips_per_pe,
                         cpu_, "pe" + std::to_string(id), *shared_disks,
                         sim::TraceTag(sim::TraceSubsystem::kDisk,
                                       static_cast<uint16_t>(id)))),
        buffer_(sched, config.buffer, *disks_,
                "pe" + std::to_string(id) + ".buf"),
        locks_(sched, sim::TraceTag(sim::TraceSubsystem::kLock,
                                    static_cast<uint16_t>(id))),
        admission_(sched, config.multiprogramming_level,
                   "pe" + std::to_string(id) + ".mpl",
                   sim::TraceTag(sim::TraceSubsystem::kAdmission,
                                 static_cast<uint16_t>(id))) {}

  PeId id() const { return id_; }

  // --- up/down state -------------------------------------------------------
  // Both flags are set by Cluster::SetPeState only, which keeps the control
  // node's view of the PE in step with them.
  //
  // Failure (engine/faults.h): a failed PE rejects new work (executors fail
  // fast with kUnavailable) while its resident queries are cancelled by the
  // fault injector.  Fault-free runs never see it.
  bool failed() const { return failed_; }
  void set_failed(bool failed) { failed_ = failed; }

  // Membership (engine/elastic.h): elastic spares start as non-members; a
  // draining PE stops being a member before its fragments finish migrating
  // out (it keeps serving fragments it still owns, but takes no new
  // placements or coordinator roles).  Runs without addpe/drainpe events
  // always see true.
  bool member() const { return member_; }
  void set_member(bool member) { member_ = member; }

  sim::Resource& cpu() { return cpu_; }
  DiskArray& disks() { return *disks_; }
  BufferManager& buffer() { return buffer_; }
  LockManager& locks() { return locks_; }
  /// Transaction-manager admission: one server per multiprogramming slot.
  sim::Resource& admission() { return admission_; }

  void ResetStats() {
    cpu_.ResetStats();
    disks_->ResetStats();
    buffer_.ResetStats();
    locks_.ResetStats();
  }

  // Report-window bookkeeping used by the cluster's control-report loop.
  double last_cpu_busy_integral = 0.0;
  double last_disk_busy_integral = 0.0;

 private:
  PeId id_;
  bool failed_ = false;
  bool member_ = true;
  sim::Resource cpu_;
  std::unique_ptr<DiskArray> disks_;
  BufferManager buffer_;
  LockManager locks_;
  sim::Resource admission_;
};

}  // namespace pdblb

#endif  // PDBLB_ENGINE_PE_H_
