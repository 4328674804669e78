// Copyright 2026 the pdblb authors. MIT license.
//
// Workload traces (paper Section 4: the simulation system supports "the use
// of real-life database traces [18]").  A trace is a plain-text file of
// arrival events, one per line:
//
//   <arrival_ms> <class>
//
// where <class> is a query class's token in kQueryClasses (common/config.h):
// join, scan, update, multiway, or oltp:<node>.  Lines starting with '#'
// are comments.  SynthesizeTrace draws a trace from Poisson processes;
// Cluster::SetTrace replays a synthetic (or real) trace into a cluster,
// replacing the Poisson sources — so two systems can be compared under an
// *identical* arrival sequence.

#ifndef PDBLB_WORKLOAD_TRACE_H_
#define PDBLB_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/units.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

/// One arrival event.
struct TraceEvent {
  SimTime arrival_ms = 0.0;
  QueryClass cls = QueryClass::kJoin;
  PeId oltp_node = 0;  ///< Only meaningful for kOltp.

  bool operator==(const TraceEvent&) const = default;
};

/// An in-memory trace, ordered by arrival time.
class Trace {
 public:
  void Add(TraceEvent event) { events_.push_back(event); }
  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

  /// Sorts events by arrival time (stable: ties keep insertion order).
  void SortByArrival();

  /// Serializes to the plain-text trace format.
  std::string ToText() const;

  /// Parses the plain-text trace format.  Returns an error with the first
  /// offending line on malformed input.
  static Status FromText(const std::string& text, Trace* out);

  Status WriteFile(const std::string& path) const;
  static Status ReadFile(const std::string& path, Trace* out);

 private:
  std::vector<TraceEvent> events_;
};

/// One query class's events per second in a synthetic trace.
struct ClassRate {
  QueryClass cls;
  double per_second;
};

/// Draws a synthetic trace over `horizon_ms` from one independent Poisson
/// process per class in `rates` (a class left out, or at rate 0, draws no
/// events); the OLTP rate applies to each node of `oltp_nodes`, each on its
/// own stream.  Every process draws from ArrivalRng(seed, ...), so a class
/// arrives at the same instants as in a Cluster run with root seed `seed`
/// and the same rate.
Trace SynthesizeTrace(uint64_t seed, SimTime horizon_ms,
                      const std::vector<ClassRate>& rates,
                      const std::vector<PeId>& oltp_nodes);

/// Spawns `fire(event)` at every event's arrival time.  Terminates after
/// the last event, or when cancelled.  Template over the callback:
/// `fire` is moved into the coroutine frame, so each dispatched arrival is
/// a direct call (no std::function indirection on the per-event path).
template <typename FireFn>
sim::Task<> ReplayTrace(sim::Scheduler& sched, Trace trace, FireFn fire) {
  for (const TraceEvent& event : trace.events()) {
    SimTime wait = event.arrival_ms - sched.Now();
    if (wait > 0) co_await sched.Delay(wait);
    fire(event);
  }
}

}  // namespace pdblb

#endif  // PDBLB_WORKLOAD_TRACE_H_
