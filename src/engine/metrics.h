// Copyright 2026 the pdblb authors. MIT license.
//
// Measurement infrastructure: everything the paper's figures plot.
// Response times and counters are recorded only after the warm-up phase.

#ifndef PDBLB_ENGINE_METRICS_H_
#define PDBLB_ENGINE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/table.h"
#include "common/units.h"
#include "simkern/stats.h"
#include "simkern/trace_ring.h"

namespace pdblb {

/// Per-subsystem arrays of the event-trace attribution (indexed by
/// sim::TraceSubsystem).
using TraceSubsystemEvents = std::array<uint64_t, sim::kNumTraceSubsystems>;
using TraceSubsystemTimes = std::array<double, sim::kNumTraceSubsystems>;

/// The two per-point blocks the figure drivers print after the figure table
/// (a text table plus an array in --report-json), each only when some point
/// shows activity in it.
enum class ReportBlock : uint8_t { kNone, kRobustness, kElasticity };

/// Title of a block's table and key of its --report-json array.
constexpr const char* ReportBlockName(ReportBlock block) {
  return block == ReportBlock::kRobustness ? "robustness" : "elasticity";
}

/// How one MetricsReport field is printed: its row in
/// PDBLB_METRICS_REPORT_FIELDS, built with CsvColumn / NotInCsv /
/// HostMeasured and optionally .Robustness / .Elasticity.
struct ReportField {
  const char* name = nullptr;   ///< the member's name
  const char* csv = nullptr;    ///< CSV column; nullptr: not in the CSV
  int decimals = 0;             ///< places of a double in the CSV and JSON
  /// Derived from wall-clock time, so it varies run to run: never in the
  /// CSV and never compared by the determinism tests.
  bool host_measured = false;
  ReportBlock block = ReportBlock::kNone;
  size_t column = 0;            ///< column order within the block
  const char* label = nullptr;  ///< block table header
  const char* json = nullptr;   ///< block --report-json key
  bool activity = false;        ///< nonzero here makes the block print

  constexpr ReportField Robustness(size_t col, const char* table_label,
                                   const char* json_key,
                                   bool is_activity = true) const {
    return In(ReportBlock::kRobustness, col, table_label, json_key,
              is_activity);
  }
  constexpr ReportField Elasticity(size_t col, const char* table_label,
                                   const char* json_key) const {
    return In(ReportBlock::kElasticity, col, table_label, json_key, true);
  }

 private:
  constexpr ReportField In(ReportBlock b, size_t col, const char* table_label,
                           const char* json_key, bool is_activity) const {
    ReportField f = *this;
    f.block = b;
    f.column = col;
    f.label = table_label;
    f.json = json_key;
    f.activity = is_activity;
    return f;
  }
};

/// A CSV column; `decimals` applies to doubles (integers print in full).
constexpr ReportField CsvColumn(const char* column, int decimals = 0) {
  ReportField f;
  f.csv = column;
  f.decimals = decimals;
  return f;
}
/// A seed-deterministic field that is not in the CSV.
constexpr ReportField NotInCsv() { return ReportField{}; }
/// A field measured in host time (see ReportField::host_measured).
constexpr ReportField HostMeasured() {
  ReportField f;
  f.host_measured = true;
  return f;
}

// Every MetricsReport field, declared once: X(type, member, how it prints).
// Row order is the CSV column order (runner::ResultsCsv); the robustness and
// elasticity blocks order their columns by the number they give.
//
// * Query classes: response-time means over the measurement window;
//   *_completed count them, throughputs divide by measurement_seconds.
// * Resources: averages of the periodic per-PE samples.  Concurrency
//   control, buffer and io_* / slow_disk_ms counters aggregate the per-PE
//   counters over the measurement window (the warm-up reset clears them).
//   buffer_hit_ratio is hits / (hits + misses), 0 when nothing was fetched.
// * Faults (engine/faults.h) and elastic resize (engine/elastic.h): all
//   zero without them.  Query counters cover the measurement window;
//   crashes, recoveries, partitions and membership/migration counters cover
//   the whole run (they are scripted or rate-driven, not workload outcomes).
// * kernel_events counts calendar events and kernel_handoffs the
//   calendar-bypassing hand-off resumes, over the whole run; both are
//   deterministic per seed.  wall_seconds and kernel_events_per_sec are
//   host-measured.
// * trace_*: per-subsystem attribution of the event trace over the whole
//   run, filled when SystemConfig::trace.enabled (zeros otherwise);
//   trace_subsystem_time_ms[s] is the simulated time advanced by dispatches
//   attributed to s.  Deterministic.
#define PDBLB_METRICS_REPORT_FIELDS(X)                                       \
  X(double, join_rt_ms, CsvColumn("join_rt_ms", 3))                          \
  X(double, join_rt_max_ms, NotInCsv())                                      \
  X(int64_t, joins_completed,                                                \
    NotInCsv().Robustness(0, "done", "completed", /*is_activity=*/false))    \
  X(double, avg_degree, CsvColumn("avg_degree", 3))                          \
  X(double, cpu_utilization, CsvColumn("cpu_util", 4))                       \
  X(double, disk_utilization, CsvColumn("disk_util", 4))                     \
  X(double, memory_utilization, CsvColumn("mem_util", 4))                    \
  X(double, avg_memory_queue_wait_ms, NotInCsv())                            \
  X(double, temp_pages_written_per_join, CsvColumn("temp_pages_per_join", 2)) \
  X(double, temp_pages_read_per_join, NotInCsv())                            \
  X(double, join_throughput_qps, CsvColumn("join_qps", 3))                   \
  X(double, oltp_rt_ms, CsvColumn("oltp_rt_ms", 3))                          \
  X(int64_t, oltp_completed, NotInCsv())                                     \
  X(double, oltp_throughput_tps, CsvColumn("oltp_tps", 3))                   \
  X(int64_t, oltp_aborts, NotInCsv())                                        \
  X(double, scan_rt_ms, CsvColumn("scan_rt_ms", 3))                          \
  X(int64_t, scans_completed, NotInCsv())                                    \
  X(double, update_rt_ms, CsvColumn("update_rt_ms", 3))                      \
  X(int64_t, updates_completed, NotInCsv())                                  \
  X(int64_t, update_aborts, NotInCsv())                                      \
  X(double, multiway_rt_ms, CsvColumn("multiway_rt_ms", 3))                  \
  X(int64_t, multiway_completed, NotInCsv())                                 \
  X(int64_t, lock_waits, CsvColumn("lock_waits"))                            \
  X(int64_t, deadlock_aborts, NotInCsv())                                    \
  X(int64_t, queries_timed_out,                                              \
    CsvColumn("queries_timed_out").Robustness(4, "t/o", "timed_out"))        \
  X(int64_t, queries_retried,                                                \
    CsvColumn("queries_retried").Robustness(3, "retry", "retried"))          \
  X(int64_t, queries_failed,                                                 \
    CsvColumn("queries_failed").Robustness(5, "fail", "failed"))             \
  X(int64_t, queries_degraded,                                               \
    CsvColumn("queries_degraded").Robustness(2, "degr", "degraded"))         \
  X(int64_t, pe_crashes,                                                     \
    CsvColumn("pe_crashes").Robustness(10, "crash", "pe_crashes"))           \
  X(int64_t, pe_recoveries, CsvColumn("pe_recoveries"))                      \
  X(int64_t, queries_shed,                                                   \
    CsvColumn("queries_shed").Robustness(1, "shed", "shed"))                 \
  X(int64_t, io_errors,                                                      \
    CsvColumn("io_errors").Robustness(6, "io err", "io_errors"))             \
  X(int64_t, io_retries,                                                     \
    CsvColumn("io_retries").Robustness(7, "io rtry", "io_retries"))          \
  X(int64_t, link_partitions,                                                \
    CsvColumn("link_partitions").Robustness(8, "parts", "link_partitions"))  \
  X(double, slow_disk_ms,                                                    \
    CsvColumn("slow_disk_ms", 3).Robustness(9, "slow ms", "slow_disk_ms"))   \
  X(int64_t, pes_added,                                                      \
    CsvColumn("pes_added").Elasticity(0, "added", "pes_added"))              \
  X(int64_t, pes_drained,                                                    \
    CsvColumn("pes_drained").Elasticity(1, "drained", "pes_drained"))        \
  X(int64_t, fragments_migrated,                                             \
    CsvColumn("fragments_migrated")                                          \
        .Elasticity(2, "frags", "fragments_migrated"))                       \
  X(int64_t, migration_pages_moved,                                          \
    CsvColumn("migration_pages_moved")                                       \
        .Elasticity(3, "pages", "migration_pages_moved"))                    \
  X(int64_t, migration_pages_discarded,                                      \
    CsvColumn("migration_pages_discarded")                                   \
        .Elasticity(4, "discarded", "migration_pages_discarded"))            \
  X(int64_t, migrations_replanned,                                           \
    CsvColumn("migrations_replanned")                                        \
        .Elasticity(5, "replans", "migrations_replanned"))                   \
  X(double, buffer_hit_ratio, CsvColumn("buf_hit_ratio", 4))                 \
  X(int64_t, buffer_hits, CsvColumn("buf_hits"))                             \
  X(int64_t, buffer_misses, CsvColumn("buf_misses"))                         \
  X(int64_t, buffer_evictions, CsvColumn("buf_evictions"))                   \
  X(int64_t, buffer_writebacks, CsvColumn("buf_writebacks"))                 \
  X(uint64_t, kernel_events, CsvColumn("kernel_events"))                     \
  X(uint64_t, kernel_handoffs, CsvColumn("kernel_handoffs"))                 \
  X(double, measurement_seconds, NotInCsv())                                 \
  X(double, wall_seconds, HostMeasured())                                    \
  X(double, kernel_events_per_sec, HostMeasured())                           \
  X(bool, trace_enabled, NotInCsv())                                         \
  X(TraceSubsystemEvents, trace_subsystem_events, NotInCsv())                \
  X(TraceSubsystemTimes, trace_subsystem_time_ms, NotInCsv())

/// Flat result record of one simulation run (what benches print).
struct MetricsReport {
#define PDBLB_DECLARE_REPORT_FIELD(type, member, how) type member{};
  PDBLB_METRICS_REPORT_FIELDS(PDBLB_DECLARE_REPORT_FIELD)
#undef PDBLB_DECLARE_REPORT_FIELD
};

/// Calls fn(field, member) for every MetricsReport field in declaration
/// order, where `member` is the field's pointer to member.
template <typename Fn>
void ForEachReportField(Fn&& fn) {
#define PDBLB_VISIT_REPORT_FIELD(type, member, how) \
  {                                                 \
    ReportField field = how;                        \
    field.name = #member;                           \
    fn(field, &MetricsReport::member);              \
  }
  PDBLB_METRICS_REPORT_FIELDS(PDBLB_VISIT_REPORT_FIELD)
#undef PDBLB_VISIT_REPORT_FIELD
}

/// ForEachReportField over the fields that hold one number (all but the
/// trace arrays); every CSV and block field is one.
template <typename Fn>
void ForEachScalarReportField(Fn&& fn) {
  ForEachReportField([&](const ReportField& field, auto member) {
    using T = std::remove_reference_t<decltype(MetricsReport{}.*member)>;
    if constexpr (std::is_arithmetic_v<T>) fn(field, member);
  });
}

/// A field's value as the CSV and --report-json print it: a double with
/// `decimals` places (printf "%.*f"), an integer in full.
template <typename T>
std::string FormatReportValue(T value, int decimals) {
  if constexpr (std::is_floating_point_v<T>) {
    return TextTable::Num(value, decimals);
  } else {
    return std::to_string(value);
  }
}

/// The workload's query classes (paper Section 4); kMultiwayJoin joins three
/// or more relations.  engine/query.h's kQueryClasses says what the query
/// lifecycle knows of each.
enum class QueryClass : uint8_t { kJoin, kMultiwayJoin, kScan, kUpdate, kOltp };
inline constexpr size_t kNumQueryClasses = 5;

/// One query class's completions over the measurement window.
struct QueryClassStats {
  sim::SampleStat response_ms;
  int64_t aborts = 0;  ///< deadlock restarts
  sim::SampleStat degree;
  int64_t temp_pages_written = 0;
  int64_t temp_pages_read = 0;
};

/// Collected during a run.
class MetricsCollector {
 public:
  void SetWarmupEnd(SimTime t) { warmup_end_ = t; }
  SimTime warmup_end() const { return warmup_end_; }
  bool Measuring(SimTime now) const { return now >= warmup_end_; }

  /// One completed query of class `cls`, with its deadlock restarts and a
  /// join's first-stage degree and temporary pages written and read.
  void RecordQuery(QueryClass cls, SimTime response_ms, int aborts, int degree,
                   int64_t temp_written, int64_t temp_read, SimTime now) {
    if (!Measuring(now)) return;
    QueryClassStats& s = queries_[static_cast<size_t>(cls)];
    s.response_ms.Add(response_ms);
    s.aborts += aborts;
    s.degree.Add(degree);
    s.temp_pages_written += temp_written;
    s.temp_pages_read += temp_read;
  }

  /// Periodic per-PE utilization samples (from the control-report loop).
  void SampleUtilization(double cpu, double disk, double memory, SimTime now) {
    if (!Measuring(now)) return;
    cpu_util_.Add(cpu);
    disk_util_.Add(disk);
    mem_util_.Add(memory);
  }

  void RecordMemoryQueueWait(SimTime wait_ms, SimTime now) {
    if (!Measuring(now)) return;
    memory_queue_wait_.Add(wait_ms);
  }

  // --- fault injection (engine/faults.h) ----------------------------------

  /// A query attempt exceeded its deadline (kDeadlineExceeded, no retry).
  void RecordQueryTimedOut(SimTime now) {
    if (Measuring(now)) ++counters_.queries_timed_out;
  }
  /// One retry of a query whose attempt hit a failed PE (kUnavailable).
  void RecordQueryRetried(SimTime now) {
    if (Measuring(now)) ++counters_.queries_retried;
  }
  /// A query exhausted its retry budget.
  void RecordQueryFailed(SimTime now) {
    if (Measuring(now)) ++counters_.queries_failed;
  }
  /// A query completed degraded: after at least one retry, or on a
  /// reduced-parallelism plan issued under overload.
  void RecordQueryDegraded(SimTime now) {
    if (Measuring(now)) ++counters_.queries_degraded;
  }
  /// A query was rejected at admission while the control node was shedding
  /// load (kResourceExhausted, never retried).
  void RecordQueryShed(SimTime now) {
    if (Measuring(now)) ++counters_.queries_shed;
  }
  /// PE crash / recovery events are counted over the whole run (they are
  /// scripted or rate-driven, not workload outcomes, so warm-up applies
  /// no differently).
  void RecordPeCrash() { ++counters_.pe_crashes; }
  void RecordPeRecovery() { ++counters_.pe_recoveries; }
  /// A scripted network partition was applied (whole run, like crashes).
  void RecordLinkPartition() { ++counters_.link_partitions; }

  // --- elastic resize (engine/elastic.h) -----------------------------------
  // Whole-run counters like crashes: membership events are scripted, not
  // workload outcomes, so warm-up applies no differently.
  /// A spare PE joined the membership (addpe fired).
  void RecordPeAdded() { ++counters_.pes_added; }
  /// A draining PE finished migrating its fragments out and left.
  void RecordPeDrained() { ++counters_.pes_drained; }
  /// One fragment finished migrating (ownership flipped), moving `pages`.
  void RecordFragmentMigrated(int64_t pages) {
    ++counters_.fragments_migrated;
    counters_.migration_pages_moved += pages;
  }
  /// Destination pages of an aborted in-flight migration were discarded
  /// (crash unwind); the fragment stays with its donor.
  void RecordMigrationPagesDiscarded(int64_t pages) {
    counters_.migration_pages_discarded += pages;
  }
  /// The rebalance plan was recomputed around a crashed/lost PE.
  void RecordMigrationReplanned() { ++counters_.migrations_replanned; }

  /// The report fields counted directly (fault and elastic counters); every
  /// other field is zero.  Cluster::Collect starts from a copy and fills in
  /// the rest.
  const MetricsReport& counters() const { return counters_; }

  const QueryClassStats& queries(QueryClass cls) const {
    return queries_[static_cast<size_t>(cls)];
  }
  /// Temporary pages written and read by the two-way joins.
  int64_t temp_pages_written() const {
    return queries(QueryClass::kJoin).temp_pages_written;
  }
  int64_t temp_pages_read() const {
    return queries(QueryClass::kJoin).temp_pages_read;
  }
  const sim::SampleStat& cpu_util() const { return cpu_util_; }
  const sim::SampleStat& disk_util() const { return disk_util_; }
  const sim::SampleStat& mem_util() const { return mem_util_; }
  const sim::SampleStat& memory_queue_wait() const {
    return memory_queue_wait_;
  }

 private:
  SimTime warmup_end_ = 0.0;
  MetricsReport counters_;
  std::array<QueryClassStats, kNumQueryClasses> queries_;
  sim::SampleStat cpu_util_;
  sim::SampleStat disk_util_;
  sim::SampleStat mem_util_;
  sim::SampleStat memory_queue_wait_;
};

}  // namespace pdblb

#endif  // PDBLB_ENGINE_METRICS_H_
