// Copyright 2026 the pdblb authors. MIT license.
//
// Tracer: per-scheduler event-trace recorder and attribution accumulator.
//
// A Tracer owns a pre-allocated TraceRing plus one (event count, simulated
// time) accumulator per subsystem.  The scheduler calls Record() once per
// dispatched event / hand-off resume while a tracer is attached; with no
// tracer attached the scheduler runs its untraced drain loop, which holds
// no tracing code.
//
// Attribution semantics: the simulated time that elapses between two
// consecutive dispatches is charged to the subsystem of the event that
// advanced the clock ("the kernel was waiting for this disk completion").
// Same-timestamp events and hand-offs contribute zero elapsed time but
// still count.  The accumulators are folded online, so the breakdown is
// exact even when the ring has wrapped and only the trace tail is retained.

#ifndef PDBLB_SIMKERN_TRACER_H_
#define PDBLB_SIMKERN_TRACER_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "simkern/trace_ring.h"

namespace pdblb::sim {

/// Per-subsystem fold of the event trace.
struct TraceBreakdown {
  uint64_t events = 0;      ///< Dispatches attributed to the subsystem.
  double sim_time_ms = 0.0; ///< Simulated time advanced by those dispatches.
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 20;
  /// Header of the ToCsv()/WriteCsv() format.
  static constexpr const char* kCsvHeader =
      "ordinal,at_ms,kind,subsystem,origin,seq\n";

  /// Pre-allocates the record ring; recording never allocates afterwards.
  explicit Tracer(size_t capacity = kDefaultCapacity) : ring_(capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Hot-path hook (called by the scheduler's dispatch loop).
  void Record(SimTime at, TraceEventKind kind, uint16_t tag_bits,
              uint64_t ordinal) {
    size_t subsystem = tag_bits >> TraceTag::kOriginBits;
    assert(subsystem < kNumTraceSubsystems);
    TraceBreakdown& b = breakdown_[subsystem];
    ++b.events;
    b.sim_time_ms += at - last_at_;
    last_at_ = at;
    ring_.Push(TraceRecord{at, static_cast<uint32_t>(ordinal), tag_bits,
                           static_cast<uint8_t>(kind)});
  }

  const TraceRing& ring() const { return ring_; }

  /// The post-run attribution result: one accumulator per subsystem
  /// (indexed by TraceSubsystem), exact for the whole run regardless of
  /// ring wrap-around.
  const std::array<TraceBreakdown, kNumTraceSubsystems>& breakdown() const {
    return breakdown_;
  }

  /// Retained records as CSV (header + one row per record, oldest first).
  /// Fully deterministic: depends only on the simulated event sequence.
  std::string ToCsv() const;

  /// Writes ToCsv() to `path`.
  Status WriteCsv(const std::string& path) const;

 private:
  TraceRing ring_;
  std::array<TraceBreakdown, kNumTraceSubsystems> breakdown_{};
  SimTime last_at_ = 0.0;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_TRACER_H_
