// Copyright 2026 the pdblb authors. MIT license.
//
// Event-trace record format and the fixed-capacity ring that retains the
// most recent records of a run.  This header is included by the scheduler
// hot path, so it holds only POD types and inline one-liners; the recording
// logic lives in tracer.h.

#ifndef PDBLB_SIMKERN_TRACE_RING_H_
#define PDBLB_SIMKERN_TRACE_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace pdblb::sim {

/// Always true: the tracing hooks are part of every build, and tracing is
/// switched on per run (SystemConfig::trace).  Kept for the benchmark's
/// machine record, which prints it.
inline constexpr bool kTraceCompiledIn = true;

/// Simulation subsystem a dispatched event is attributed to.  The id is
/// threaded from the call site that schedules the wake-up (a disk Resource
/// tags its end-of-service resumes kDisk, a channel tags its hand-offs
/// kChannel, ...) and rides in the low bits of the event's sequence word,
/// so attribution costs the hot path nothing.
enum class TraceSubsystem : uint8_t {
  kKernel = 0,     ///< Delays, spawns, generic callbacks (default tag).
  kCpu = 1,        ///< PE CPU servers (service-interval resumes).
  kDisk = 2,       ///< Disk/controller/log servers and page transmission.
  kNetwork = 3,    ///< Wire latency of packetized transfers.
  kLock = 4,       ///< Lock-manager grant and abort wake-ups.
  kChannel = 5,    ///< Channel value hand-offs and close broadcasts.
  kLatch = 6,      ///< Supervisor wake-ups: the one-member task groups
                   ///< of query attempts and fragment migrations.
  kTaskGroup = 7,  ///< TaskGroup join wake-ups.
  kAdmission = 8,  ///< Transaction-manager admission (MPL) queue.
  kCount = 9,
};

inline constexpr size_t kNumTraceSubsystems =
    static_cast<size_t>(TraceSubsystem::kCount);

/// Printable name of a subsystem id (stable; used in trace CSV and JSON).
inline const char* TraceSubsystemName(size_t subsystem) {
  static const char* kNames[kNumTraceSubsystems] = {
      "kernel", "cpu",   "disk",  "network",  "lock",
      "channel", "latch", "group", "admission"};
  return subsystem < kNumTraceSubsystems ? kNames[subsystem] : "?";
}

/// How a record entered the dispatch loop.
enum class TraceEventKind : uint8_t {
  kCalendar = 0,   ///< Future-time event popped from the binary heap.
  kZeroDelay = 1,  ///< Same-time event from the FIFO bypass ring.
  kHandOff = 2,    ///< Calendar-bypassing hand-off lane resume.
};

inline const char* TraceEventKindName(uint8_t kind) {
  static const char* kNames[3] = {"calendar", "ring", "handoff"};
  return kind < 3 ? kNames[kind] : "?";
}

/// 16-bit attribution tag carried by every scheduled event:
/// (subsystem << 12) | origin.  `origin` is a small call-site-defined id
/// (PE number for CPUs/disks/locks, source PE for network wires); 0 when
/// the site has no natural origin.  Packed into the low bits of the
/// event's sequence word (below a ring/calendar source bit and the
/// scheduler's lane field) — the real sequence number lives in the high
/// 40 bits, so FIFO comparisons are unaffected (distinct events always
/// differ in the high bits).
struct TraceTag {
  uint16_t bits = 0;

  constexpr TraceTag() = default;
  constexpr explicit TraceTag(TraceSubsystem subsystem, uint16_t origin = 0)
      : bits(static_cast<uint16_t>(
            (static_cast<uint16_t>(subsystem) << kOriginBits) |
            (origin & kOriginMask))) {}

  constexpr TraceSubsystem subsystem() const {
    return static_cast<TraceSubsystem>(bits >> kOriginBits);
  }
  constexpr uint16_t origin() const { return bits & kOriginMask; }

  static constexpr unsigned kOriginBits = 12;
  static constexpr uint16_t kOriginMask = (1u << kOriginBits) - 1;
};

/// Number of low sequence-word bits occupied by tracing metadata: the
/// 16-bit packed TraceTag plus one bit (bit 16) recording whether the
/// event was pushed to the same-time FIFO ring or the calendar — so
/// dispatch can label the record without any side-channel from the pop
/// path.  The scheduler puts its lane field (bits 17–23) right above, and
/// the sequence number in the remaining 40 high bits, ~10^12 events per
/// run (Scheduler::Event).
inline constexpr unsigned kTraceTagShift = 17;
inline constexpr uint64_t kTraceRingBit = 1ull << 16;

/// One dispatched event, 16 bytes.  `seq` is the kind-local ordinal: the
/// calendar sequence number for kCalendar/kZeroDelay records, the hand-off
/// resume ordinal for kHandOff records (the two counters are independent,
/// exactly like events_processed() vs inline_resumes()).
struct TraceRecord {
  SimTime at;     ///< Virtual timestamp of the dispatch.
  uint32_t seq;   ///< Low 32 bits of the kind-local ordinal.
  uint16_t tag;   ///< Packed TraceTag (subsystem | origin).
  uint8_t kind;   ///< TraceEventKind.
  uint8_t pad = 0;
};
static_assert(sizeof(TraceRecord) == 16, "keep trace records compact PODs");

/// Fixed-capacity wrapping record store: the most recent `capacity`
/// records are retained, older ones are overwritten in place.  All memory
/// is allocated up front in the constructor, so recording never touches
/// the heap — the zero-allocation-per-event guarantee holds with tracing
/// enabled (pinned by tests/simkern_alloc_test.cc).
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 64).
  explicit TraceRing(size_t capacity) {
    size_t cap = 64;
    while (cap < capacity) cap *= 2;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  void Push(const TraceRecord& r) { buf_[total_++ & mask_] = r; }

  /// Records retained (<= capacity).
  size_t size() const {
    return total_ < buf_.size() ? static_cast<size_t>(total_) : buf_.size();
  }
  size_t capacity() const { return buf_.size(); }
  /// Records ever pushed; total() - size() were overwritten.
  uint64_t total() const { return total_; }
  uint64_t dropped() const { return total_ - size(); }

  /// i-th oldest retained record, i in [0, size()).
  const TraceRecord& At(size_t i) const {
    return buf_[(total_ - size() + i) & mask_];
  }

 private:
  std::vector<TraceRecord> buf_;
  uint64_t mask_ = 0;
  uint64_t total_ = 0;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_TRACE_RING_H_
