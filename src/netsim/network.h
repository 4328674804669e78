// Copyright 2026 the pdblb authors. MIT license.
//
// Communication network model (paper Section 4): messages are disassembled
// into fixed-size packets; per-message and per-packet CPU overhead is charged
// on the sending and receiving PEs, the wire adds a per-packet transmission
// delay.  The interconnect itself is a scalable high-speed network (EDS-like)
// and is modeled contention-free; the *CPU* cost of communication is the
// scarce resource, which is exactly the effect the paper's load-balancing
// trade-off hinges on.

#ifndef PDBLB_NETSIM_NETWORK_H_
#define PDBLB_NETSIM_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/units.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

/// Packetized point-to-point message transport.
class Network {
 public:
  /// `cpus[pe]` is PE `pe`'s CPU resource; the network charges the paper's
  /// send/receive/copy instruction counts there.  A flat table instead of a
  /// callback: endpoint lookup on the per-message hot path is one indexed
  /// load, with no type-erased indirection.
  Network(sim::Scheduler& sched, const NetworkConfig& net_config,
          const CpuCosts& costs, double mips,
          std::vector<sim::Resource*> cpus);

  /// Transfers `bytes` from `src` to `dst` as one logical message:
  ///   sender CPU:   send_message + copy_message * packets
  ///   wire:         wire_time_per_packet * packets (pure delay)
  ///   receiver CPU: receive_message + copy_message * packets
  /// Completes when the receiver has processed the message.  Local transfers
  /// (src == dst) are free: co-located operators communicate via memory.
  sim::Task<> Transfer(PeId src, PeId dst, int64_t bytes);

  /// A short control message (startup, commit votes): one packet.
  sim::Task<> ControlMessage(PeId src, PeId dst);

  /// Bulk data transfer (fragment migration): same packetization, CPU
  /// charges and wire delay as Transfer, but accounted separately so the
  /// foreground message counters stay comparable across elastic and
  /// resize-free runs.
  sim::Task<> TransferBulk(PeId src, PeId dst, int64_t bytes);

  /// Packets needed for `bytes` (at least 1 for a non-empty message).
  int64_t PacketsFor(int64_t bytes) const;

  // --- link faults (engine/faults.h) --------------------------------------
  // Per-link partition flags and wire-delay multipliers.  The state tables
  // are lazily allocated on the first Set* call, so the fault-free path
  // touches nothing; Transfer itself only consults the multiplier (>= 1:
  // link faults model slow-downs only, never a speed-up).  Partitions
  // are enforced one level up: the FaultInjector fails attempts that would
  // span a cut link (kUnavailable into the Supervise retry path) instead of
  // erroring the byte-stream, which has no failure channel.
  /// Cuts or restores the (symmetric) a<->b link.
  void SetPartitioned(PeId a, PeId b, bool partitioned);
  /// True when the a<->b link is currently cut; false when never armed.
  bool Partitioned(PeId a, PeId b) const;
  /// True when any link is currently cut (cheap fault-free early-out).
  bool AnyPartitions() const { return partitioned_links_ > 0; }
  /// Multiplies the (symmetric) a<->b wire delay by `factor` (>= 1; 1.0
  /// restores).
  void SetLinkDelayMultiplier(PeId a, PeId b, double factor);

  // --- statistics ---------------------------------------------------------
  int64_t messages_sent() const { return messages_sent_; }
  int64_t packets_sent() const { return packets_sent_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  /// Bulk (migration) traffic, kept out of the foreground counters above.
  int64_t bulk_messages_sent() const { return bulk_messages_sent_; }
  int64_t bulk_bytes_sent() const { return bulk_bytes_sent_; }
  void ResetStats();

 private:
  size_t LinkIndex(PeId a, PeId b) const {
    return static_cast<size_t>(a) * cpus_.size() + static_cast<size_t>(b);
  }

  sim::Scheduler& sched_;
  NetworkConfig config_;
  CpuCosts costs_;
  double mips_;
  std::vector<sim::Resource*> cpus_;

  // n x n link state, symmetric, empty until a fault arms it.
  std::vector<uint8_t> partitioned_;
  std::vector<double> link_delay_factor_;
  int partitioned_links_ = 0;

  int64_t messages_sent_ = 0;
  int64_t packets_sent_ = 0;
  int64_t bytes_sent_ = 0;
  int64_t bulk_messages_sent_ = 0;
  int64_t bulk_bytes_sent_ = 0;
};

}  // namespace pdblb

#endif  // PDBLB_NETSIM_NETWORK_H_
