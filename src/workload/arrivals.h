// Copyright 2026 the pdblb authors. MIT license.
//
// Workload generation (paper Section 4): the simulation system is an open
// queueing model with an individual arrival rate per transaction/query type.
// This module provides the Poisson arrival source used for all open classes
// and a closed sequential loop used for single-user experiments.
//
// Both generators are templates over their callback type: the callable is
// moved into the coroutine frame (one allocation per generator at startup)
// instead of being boxed in a std::function, so firing an arrival is a
// direct call with no type-erasure or heap traffic per event.  A non-owning
// function_ref would dangle here — the generator outlives the call site's
// temporaries — which is why the callable is taken by value.

#ifndef PDBLB_WORKLOAD_ARRIVALS_H_
#define PDBLB_WORKLOAD_ARRIVALS_H_

#include <cassert>
#include <cstdint>

#include "common/config.h"
#include "common/units.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

/// The arrival stream of class `cls` (at OLTP home `home`, 0 for the other
/// classes) under root seed `seed`: a cluster's Poisson source and
/// SynthesizeTrace draw the same arrival instants from it.
inline sim::Rng ArrivalRng(uint64_t seed, QueryClass cls, PeId home) {
  return sim::Rng(seed).Fork(2).Fork(
      kQueryClasses[static_cast<size_t>(cls)].stream +
      static_cast<uint64_t>(home));
}

/// Spawns `fire(seq)` according to a Poisson process with the given rate
/// (arrivals per second).  Runs until cancelled (Scheduler::CancelAll ends
/// a run).
template <typename FireFn>
sim::Task<> PoissonArrivals(sim::Scheduler& sched, sim::Rng rng,
                            double rate_per_second, FireFn fire) {
  assert(rate_per_second > 0.0);
  double mean_interarrival_ms = 1000.0 / rate_per_second;
  int64_t seq = 0;
  while (true) {
    co_await sched.Delay(rng.Exponential(mean_interarrival_ms));
    fire(seq++);
  }
}

/// Runs `body(seq)` `count` times back to back (single-user mode: the next
/// query enters only after the previous one finished).  Sets `*done` at the
/// end if non-null.
template <typename BodyFn>
sim::Task<> ClosedLoop(int64_t count, BodyFn body, bool* done) {
  for (int64_t i = 0; i < count; ++i) {
    co_await body(i);
  }
  if (done != nullptr) *done = true;
}

}  // namespace pdblb

#endif  // PDBLB_WORKLOAD_ARRIVALS_H_
