// Copyright 2026 the pdblb authors. MIT license.
//
// Shared pieces of the pdblb_perfbench binary: the host clock, the span log
// written when a run ends, the heap-allocation counter (alloc_counter.cc)
// and the standalone layer probes (probes.cc).

#ifndef PDBLB_PERFBENCH_PERFBENCH_H_
#define PDBLB_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.h"

namespace perfbench {

/// Host seconds since the first call (steady clock).
double NowSeconds();

/// Metric name -> value, printed in name order.
using Metrics = std::map<std::string, double>;

// --- heap-allocation counting (alloc_counter.cc) ---------------------------
// The binary replaces the global operator new.  Counting is off by default,
// so the untraced timed runs pay one relaxed load per allocation; it is
// turned on around the traced runs and the layer probes only.

/// Starts or stops counting operator new calls (all threads).
void SetAllocCounting(bool on);
/// Allocations counted so far.
uint64_t AllocCount();

// --- spans -----------------------------------------------------------------

/// Host-time spans recorded around the benchmark's calls into the library
/// (construction, Run, runner points, probes); kept in memory and written
/// out as JSON when the run ends.
class SpanLog {
 public:
  /// Records a finished span; returns its id.  `parent` is -1 for a root.
  int Add(std::string name, int parent, double start_s, double end_s);
  /// Opens a span at NowSeconds(); close it with End().
  int Begin(std::string name, int parent = -1);
  void End(int id);
  std::string ToJson() const;

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  std::vector<Span> spans_;
};

// --- layer probes (probes.cc) ------------------------------------------------

/// Which access mix the disk and buffer probes replay.
enum class ProbeMix {
  kScan,  ///< Range scans and temp-file writes (the join workloads).
  kOltp,  ///< Random point reads with a hot set and log writes.
};

/// Drives each layer's public API standalone on a private sim::Scheduler,
/// sized from `config`, and returns "<module>.probe_*" metrics (host ns and
/// heap allocations per operation).  The planner probe cycles through
/// `strategies`.  Each probe is recorded as a child span of `parent`.
Metrics RunProbes(const pdblb::SystemConfig& config, ProbeMix mix,
                  const std::vector<pdblb::StrategyConfig>& strategies,
                  SpanLog& spans, int parent);

}  // namespace perfbench

#endif  // PDBLB_PERFBENCH_PERFBENCH_H_
