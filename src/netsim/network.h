// Copyright 2026 the pdblb authors. MIT license.
//
// Communication network model (paper Section 4): messages are disassembled
// into fixed-size packets; per-message and per-packet CPU overhead is charged
// on the sending and receiving PEs, the wire adds a per-packet transmission
// delay.  The interconnect itself is a scalable high-speed network (EDS-like)
// and is modeled contention-free; the *CPU* cost of communication is the
// scarce resource, which is exactly the effect the paper's load-balancing
// trade-off hinges on.  Every message of the simulator goes through this
// class — data batches, results, control and commit messages and fragment
// migration — so it alone knows what a message costs, and a slow link and
// the message counters see every one.

#ifndef PDBLB_NETSIM_NETWORK_H_
#define PDBLB_NETSIM_NETWORK_H_

#include <cstdint>
#include <utility>
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
  ///   sender CPU:   SendMs(packets)
  ///   wire:         wire_time_per_packet * packets (pure delay)
  ///   receiver CPU: ReceiveMs(packets)
  /// and runs `delivered()` in the event that ends the receiver's CPU
  /// service.  Local transfers (src == dst) are free — co-located operators
  /// communicate via memory — and run `delivered()` at once.  Sending is
  /// the transfer itself: a sender that spawns it and hands the payload
  /// over in `delivered` holds one coroutine frame per message in flight.
  template <typename Delivered>
  sim::Task<> Transfer(PeId src, PeId dst, int64_t bytes,
                       Delivered delivered) {
    return Ship(src, dst, bytes, /*send_cpu=*/true, std::move(delivered));
  }

  /// Transfer with nothing to hand over: completes when the receiver has
  /// processed the message.  Fragment migration's batches are transfers
  /// too, counted with every other message.
  sim::Task<> Transfer(PeId src, PeId dst, int64_t bytes);

  /// A short control message (a control-node consult, a commit vote or
  /// acknowledgement): one packet.
  sim::Task<> ControlMessage(PeId src, PeId dst);

  /// A one-packet control message whose sender has already paid its
  /// SendMs(1) (a coordinator serializing a fan-out's sends): the wire and
  /// the receiver's CPU only, counted as one message.
  sim::Task<> Deliver(PeId src, PeId dst);

  /// CPU time to send, or to receive, one message of `packets` packets:
  /// message setup plus one buffer copy per packet.
  SimTime SendMs(int64_t packets) const {
    return InstructionsToMs(
        costs_.send_message + costs_.copy_message * packets, mips_);
  }
  SimTime ReceiveMs(int64_t packets) const {
    return InstructionsToMs(
        costs_.receive_message + costs_.copy_message * packets, mips_);
  }

  /// Packets needed for `bytes` (at least 1 for a non-empty message).
  int64_t PacketsFor(int64_t bytes) const {
    if (bytes <= 0) return 1;
    return (bytes + config_.packet_size_bytes - 1) / config_.packet_size_bytes;
  }

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
  int64_t messages_sent() const { return sent_.messages; }
  int64_t packets_sent() const { return sent_.packets; }
  int64_t bytes_sent() const { return sent_.bytes; }
  void ResetStats() { sent_ = Counters{}; }

 private:
  struct Counters {
    int64_t messages = 0;
    int64_t packets = 0;
    int64_t bytes = 0;
  };

  size_t LinkIndex(PeId a, PeId b) const {
    return static_cast<size_t>(a) * cpus_.size() + static_cast<size_t>(b);
  }

  // Wire latency of `packets` packets from src to dst (store-and-forward
  // across packets).  A slow link stretches the wire share only; the
  // endpoint CPU work is unchanged.
  SimTime WireMs(PeId src, PeId dst, int64_t packets) const {
    double wire_ms =
        config_.wire_time_per_packet_ms * static_cast<double>(packets);
    if (!link_delay_factor_.empty()) {
      wire_ms *= link_delay_factor_[LinkIndex(src, dst)];
    }
    return wire_ms;
  }

  // The one message body behind every public call; `send_cpu` is false
  // for a message whose sender already paid its CPU share (Deliver).  A
  // message in flight is this frame alone, and the frame holds one
  // awaiter, re-aimed at each of the message's legs.
  template <typename Delivered>
  sim::Task<> Ship(PeId src, PeId dst, int64_t bytes, bool send_cpu,
                   Delivered delivered) {
    if (src != dst) {
      const int64_t packets = PacketsFor(bytes);
      ++sent_.messages;
      sent_.packets += packets;
      sent_.bytes += bytes;
      sim::Leg leg(sched_);

      if (send_cpu) {
        leg.Use(*cpus_[src], SendMs(packets));
        co_await leg;
      }

      // The wire, traced as network time with the sending PE as origin; the
      // CPU shares of the transfer are charged on (and attributed to) the
      // endpoint CPUs.
      leg.Delay(WireMs(src, dst, packets),
                sim::TraceTag(sim::TraceSubsystem::kNetwork,
                              static_cast<uint16_t>(src)));
      co_await leg;

      leg.Use(*cpus_[dst], ReceiveMs(packets));
      co_await leg;
    }
    delivered();
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

  Counters sent_;
};

}  // namespace pdblb

#endif  // PDBLB_NETSIM_NETWORK_H_
