// Copyright 2026 the pdblb authors. MIT license.
//
// SystemConfig mirrors the parameter table of the paper (Fig. 4: "System
// configuration, database and query profile") plus the per-experiment knobs
// the evaluation section varies.  All defaults are the paper's settings.

#ifndef PDBLB_COMMON_CONFIG_H_
#define PDBLB_COMMON_CONFIG_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace pdblb {

/// Parses all of `token` as a finite number of type T.  Every number in a
/// fault spec, a driver flag or a trace file goes through here, so leftover
/// characters ("5000ms", "x2.5q"), a leading "+", a fraction where an
/// integer is due ("2.9"), NaN and infinities are rejected rather than
/// truncated or let through.
template <typename T>
bool ParseNumber(std::string_view token, T* out) {
  T value{};
  const char* end = token.data() + token.size();
  auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// CPU cost (instruction count) of every major processing step, as listed in
/// the paper's parameter table.
struct CpuCosts {
  int64_t initiate_txn = 25000;       ///< BOT: initiate a query/transaction.
  int64_t terminate_txn = 25000;      ///< EOT: terminate a query/transaction.
  int64_t io_overhead = 3000;         ///< CPU overhead per I/O operation.
  int64_t send_message = 5000;        ///< Send one message.
  int64_t receive_message = 10000;    ///< Receive one message.
  int64_t copy_message = 5000;        ///< Copy an 8 KB message buffer.
  int64_t read_tuple = 500;           ///< Read a tuple from a memory page.
  int64_t hash_tuple = 500;           ///< Hash a tuple's join attribute.
  int64_t insert_hash_table = 100;    ///< Insert a tuple into a hash table.
  int64_t write_output_tuple = 100;   ///< Write a tuple into an output buffer.
  int64_t probe_hash_table = 200;     ///< Probe the hash table with a tuple.
  int64_t sort_compare = 200;         ///< One comparison during sort/merge
                                      ///< (sort-merge baseline, not in the
                                      ///< paper's table).
};

/// Disk device / controller model parameters.
struct DiskConfig {
  int disks_per_pe = 10;                    ///< Disk servers per PE (varied).
  double controller_time_per_page_ms = 1.0; ///< Controller service per page.
  double transmission_time_per_page_ms = 0.4;
  double avg_access_time_ms = 15.0;         ///< Base (random) access time.
  double prefetch_delay_per_page_ms = 1.0;  ///< Extra delay per prefetched page.
  int disk_cache_pages = 200;               ///< LRU cache in the controller.
  int prefetch_pages = 4;                   ///< Pages read per prefetch I/O.
  double log_write_ms = 5.0;                ///< Sequential log append (OLTP).
};

/// Page-replacement policy of the per-PE buffer (see docs/bufmgr.md).
enum class EvictionPolicyKind {
  kLru,    ///< Least recently used (default; the paper's setting).
  kLruK,   ///< LRU-2: oldest second-to-last access (scan-resistant).
  kLfu,    ///< Least frequently used, with periodic counter aging.
  kClock,  ///< Second-chance ring.
};

/// Stable lowercase name, as accepted by --eviction ("lru", "lru-k", ...).
const char* EvictionPolicyName(EvictionPolicyKind kind);
/// Parses an --eviction value ("lru", "lru-k", "lfu", "clock").
Status ParseEvictionPolicy(const std::string& name, EvictionPolicyKind* out);

/// Main-memory database buffer parameters.
struct BufferConfig {
  int page_size_bytes = 8192;  ///< 8 KB pages.
  int buffer_pages = 50;       ///< 0.4 MB per PE (deliberately small, paper).
  EvictionPolicyKind eviction = EvictionPolicyKind::kLru;
  /// Sliding window used to estimate the protected (hot, twice-referenced)
  /// working set that join reservations must not displace.
  double working_set_window_ms = 2000.0;
  /// Short window for the "touched frames" estimate a PE reports to the
  /// control node as occupied memory (BufferManager::AvailablePages).
  double touched_window_ms = 300.0;
};

/// Kernel event tracing (src/simkern/tracer.h).  When enabled, every
/// dispatched event and hand-off resume is recorded into a pre-allocated
/// per-scheduler ring (most recent `capacity` records retained) and the
/// run's MetricsReport carries the per-subsystem attribution fold.
struct TraceConfig {
  bool enabled = false;
  /// Records retained by the ring (rounded up to a power of two).  The
  /// attribution breakdown is exact for the whole run regardless of
  /// wrap-around; only the dumped record tail is bounded by this.
  int64_t capacity = 1 << 20;
};

/// Communication network parameters (packetized transmission, EDS-like).
struct NetworkConfig {
  int packet_size_bytes = 8192;      ///< Fixed packet size; larger messages
                                     ///< are disassembled into packets.
  double wire_time_per_packet_ms = 0.1;  ///< Pure transmission latency.
};

enum class IndexType {
  kNone,
  kClusteredBTree,
  kUnclusteredBTree,
};

/// System architecture (paper Section 7 / [27]: "the proposed strategies
/// are not limited to Shared Nothing but can equally be applied in Shared
/// Disk database systems").
enum class Architecture {
  /// Shared Nothing: each PE owns its disks; scans are bound to the data
  /// allocation (the paper's base architecture).
  kSharedNothing,
  /// Shared Disk: all PEs reach all spindles through the storage
  /// interconnect; scan operators are freely placeable, so the dynamic
  /// strategies also balance the scan work ([27]).  Per-PE storage adapters
  /// (controller + disk cache) and private buffers remain local.
  kSharedDisk,
};

/// Concurrency control between read-only queries and update transactions
/// (paper footnote 1: "Data contention problems between read-only queries
/// and update transactions may be solved by a multiversion concurrency
/// control scheme [4]").
enum class CcScheme {
  /// The paper's base assumption: workloads are partitioned so queries and
  /// updates never conflict; queries take no read locks.
  kNoReadLocks,
  /// Strict 2PL for everyone: queries acquire long page-level read locks on
  /// scanned ranges and block behind (and are blocked by) updaters.  The
  /// read-only optimized commit round releases the read locks.
  kTwoPhaseLocking,
  /// Multiversion CC [4]: queries read a snapshot without locks; update
  /// transactions maintain before-images (extra CPU per tuple and one
  /// version-pool page write per dirtied page).
  kMultiversion,
};

/// Local join algorithm run at each join processor.
enum class LocalJoinMethod {
  kPPHJ,       ///< Memory-adaptive Partially Preemptible Hash Join (paper).
  kSortMerge,  ///< Non-adaptive sort-merge baseline (predecessor study [26]).
};

/// One base relation (the paper's A and B relations plus OLTP relations).
struct RelationConfig {
  std::string name;
  int64_t num_tuples = 0;
  int tuple_size_bytes = 400;
  int blocking_factor = 20;  ///< Tuples per page.
  IndexType index = IndexType::kClusteredBTree;
};

/// Degree-of-parallelism policies (Section 3.1 of the paper, plus the
/// RateMatch baseline the paper critiques in Section 6).
enum class DegreePolicyKind {
  kStaticSuOpt,   ///< p_su-opt: single-user optimum from the cost model.
  kStaticSuNoIO,  ///< p_su-noIO: formula (3.1), avoids temp I/O single-user.
  kDynamicCpu,    ///< p_mu-cpu: formula (3.2), CPU-utilization adaptive.
  /// RateMatch (Mehta & DeWitt [20]): choose the degree so that the
  /// aggregate join consumption rate matches the scan production rate.
  /// Per-processor rates are derated by the *average* CPU and disk
  /// utilization, so the degree *rises* with system load — the behaviour
  /// the paper identifies as harmful beyond ~50% CPU utilization.  Memory
  /// availability is ignored entirely (their simplification).
  kRateMatch,
};

/// Join-processor selection policies (Section 3.2).
enum class SelectionPolicyKind {
  kRandom,  ///< Static random selection.
  kLUC,     ///< Least Utilized CPUs.
  kLUM,     ///< Least Utilized Memory (most free memory).
};

/// Integrated strategies (Section 3.3) that determine the degree and the
/// placement in a single step; kNone selects an isolated strategy instead.
enum class IntegratedPolicyKind {
  kNone,
  kMinIO,        ///< Minimal #PE avoiding (or minimizing) temp file I/O.
  kMinIOSuOpt,   ///< No-I/O selection closest to p_su-opt.
  kOptIOCpu,     ///< Best no-I/O selection capped by p_mu-cpu.
};

/// Full specification of one load-balancing strategy.
struct StrategyConfig {
  IntegratedPolicyKind integrated = IntegratedPolicyKind::kNone;
  DegreePolicyKind degree = DegreePolicyKind::kDynamicCpu;
  SelectionPolicyKind selection = SelectionPolicyKind::kLUM;
  /// When positive (and integrated == kNone) the degree of join parallelism
  /// is forced to this value — used to trace R(p) curves (paper Fig. 1).
  int fixed_degree = 0;
  /// Skew-aware subjoin assignment (the paper's conclusion sketch): pair the
  /// largest partition with the least-loaded selected PE instead of an
  /// arbitrary one.  Only observable when redistribution_skew > 0.
  bool skew_aware_assignment = false;

  /// Returns a printable name matching the paper's labels, e.g.
  /// "p_mu-cpu + LUM" or "OPT-IO-CPU".
  std::string Name() const;
};

/// Join query class (two scans + join, paper Section 5.1).
struct JoinQueryConfig {
  double scan_selectivity = 0.01;   ///< Fraction of tuples selected (varied).
  double result_size_factor = 1.0;  ///< Result tuples = factor * inner output.
  double fudge_factor = 1.05;       ///< Hash table overhead F.
  double arrival_rate_per_pe_qps = 0.25;  ///< Open arrivals per PE per second.
  /// Redistribution skew: Zipf exponent of the partition-size distribution
  /// produced by the partitioning function.  0 = the paper's no-skew base
  /// assumption (equal subjoins); ~1 = heavy attribute-value skew.
  double redistribution_skew = 0.0;
};

/// Base relation targeted by a standalone scan/update query class.
enum class TargetRelation {
  kA,  ///< The smaller relation (20% of PEs).
  kB,  ///< The larger relation (80% of PEs).
  kC,  ///< The multi-way join relation (declustered over all PEs).
};

/// Access path of a standalone scan query class (paper Section 4 lists
/// relation scan, clustered index scan and non-clustered index scan).
enum class ScanAccess {
  kRelationScan,      ///< Read every fragment page.
  kClusteredIndex,    ///< Descend, then read only the selected range.
  kUnclusteredIndex,  ///< Descend, then one leaf + one data page per tuple.
};

/// Standalone scan query class with its own open arrival stream.
struct ScanQueryConfig {
  ScanAccess access = ScanAccess::kClusteredIndex;
  TargetRelation relation = TargetRelation::kB;
  double selectivity = 0.01;  ///< Fraction of tuples satisfying the predicate.
  double arrival_rate_per_pe_qps = 0.0;
};

/// Update statement class (paper Section 4: "update statements (both with
/// and without index support)").  Updates run under strict 2PL with a full
/// two-phase distributed commit.
struct UpdateQueryConfig {
  bool index_supported = true;  ///< Without index: full scan to find tuples.
  TargetRelation relation = TargetRelation::kA;
  double selectivity = 0.001;   ///< Fraction of tuples updated.
  double arrival_rate_per_pe_qps = 0.0;
};

/// Multi-way join query class: a left-deep pipeline of hash joins
/// (A ⋈ B) ⋈ C [⋈ C ...] with dynamic redistribution between stages.
struct MultiwayJoinConfig {
  int ways = 3;  ///< Number of input relations (>= 3).
  double arrival_rate_per_pe_qps = 0.0;
};

/// Where the OLTP transaction load is routed (heterogeneous workloads).
enum class OltpPlacement {
  kANodes,  ///< On the 20% of PEs holding relation A fragments.
  kBNodes,  ///< On the 80% of PEs holding relation B fragments.
  kAllNodes,
};

/// Debit-credit-like OLTP class (4 non-clustered index selects + updates).
struct OltpConfig {
  /// Builds the OLTP-private relations (the schema) and starts the class.
  bool enabled = false;
  double tps_per_node = 100.0;  ///< Arrival rate per OLTP node.
  int tuple_accesses = 4;       ///< Tuples read and updated, each via an
                                ///< unclustered index.
  OltpPlacement placement = OltpPlacement::kANodes;
  /// Tuples per OLTP node in the OLTP-private relation (controls buffer-hit
  /// behaviour and thus the OLTP node's disk/memory utilization).
  int64_t tuples_per_node = 100000;
  int blocking_factor = 20;
  /// Debit-credit style access skew: a `hot_access_fraction` share of tuple
  /// accesses goes to the first `hot_pages` pages (branch/teller records),
  /// the rest is uniform over the fragment (account records).
  double hot_access_fraction = 0.85;
  int64_t hot_pages = 22;
};

/// The query classes of the workload (paper Section 4: an open queueing
/// model with one arrival rate per query type); kMultiwayJoin joins three
/// or more relations.  kQueryClasses, after SystemConfig, says what the
/// workload and the query lifecycle know of each.
enum class QueryClass : uint8_t { kJoin, kScan, kUpdate, kMultiwayJoin, kOltp };
inline constexpr size_t kNumQueryClasses = 5;

struct SystemConfig;

/// One query class, as a row of kQueryClasses.
struct QueryClassInfo {
  /// Its token in a trace file (workload/trace.h); an OLTP event appends
  /// ":<home PE>".
  const char* token;
  /// Its open arrivals per second under `config`, per node for OLTP.  The
  /// class has a Poisson source when this is positive.
  double (*arrivals_per_second)(const SystemConfig& config);
  /// The stream of the cluster's arrival RNG its Poisson source draws
  /// from, and the stream of SynthesizeTrace's seed; an OLTP node adds its
  /// id to both.
  uint64_t stream;
  uint64_t trace_stream;
  /// Rejected at admission while the control node sheds load: the joins,
  /// whose degree and working memory overload control trades.  Scans and
  /// updates hold no working memory and have a prescribed placement; OLTP
  /// transactions are short and have priority (docs/robustness.md).
  bool shed;
  /// Arrives from a client terminal (the debit-credit interaction): the
  /// request is received before BOT and the reply sent after EOT, and the
  /// transaction holds its locks until the reply is out.
  bool terminal;
};

/// One scripted fault event.  Crash/recover pairs drive the PE failure
/// model: a crashed PE aborts its resident work, releases buffer/lock
/// resources and rejects new placements until it recovers.  The gray-failure
/// kinds degrade a PE or a link without killing it: slow disks multiply the
/// disk service time, partitions make a PE pair mutually unreachable (heal
/// reverses), and slow links stretch the wire delay of one directed pair.
enum class FaultKind {
  kCrash,
  kRecover,
  kSlowDisk,   ///< Multiply PE `pe`'s disk service times by `factor`.
  kPartition,  ///< Cut the link between `pe` and `pe2` (symmetric).
  kHeal,       ///< Restore the link between `pe` and `pe2`.
  kSlowLink,   ///< Multiply the pe->pe2 wire delay by `factor` (both ways).
  kAddPe,      ///< Elastic add: PE `pe` (a spare, excluded from the initial
               ///< declustering) joins the cluster; fragments migrate to it.
  kDrainPe,    ///< Elastic drain: PE `pe` stops taking new placements, its
               ///< fragments migrate out, then it leaves the membership.
};

struct FaultEvent {
  double at_ms = 0.0;  ///< Simulation time (measured from run start).
  FaultKind kind = FaultKind::kCrash;
  int pe = 0;
  int pe2 = -1;         ///< Second endpoint (partition/heal/slowlink only).
  double factor = 1.0;  ///< Service/delay multiplier (slowdisk/slowlink);
                        ///< >= 1: these clauses model slow-downs only.
                        ///< 1.0 restores normal speed.
};

/// Retry policy for queries that fail with kUnavailable (a participant PE
/// crashed mid-query).  Backoff is capped exponential with seeded jitter:
/// attempt k sleeps min(initial * multiplier^(k-1), max) * (1 ± jitter*U),
/// where U is drawn from the workload RNG stream — deterministic per seed.
/// Queries that exceed their deadline (kDeadlineExceeded) never retry.
struct RetryPolicy {
  int max_attempts = 3;             ///< Total attempts including the first.
  double initial_backoff_ms = 10.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 1000.0;
  double jitter_frac = 0.2;         ///< Relative jitter, in [0, 1].
};

/// Fault-injection and query-timeout configuration.  Disabled by default;
/// when disabled the engine runs the exact event sequence of previous
/// versions (no supervision wrappers, no extra RNG draws).
struct FaultConfig {
  /// Explicit schedule (applied as given, in addition to the rate model).
  std::vector<FaultEvent> events;
  /// Random crash model: each PE crashes as a Poisson process with this
  /// rate and recovers mttr_ms later.  The schedule is pre-generated from
  /// a dedicated fork of the root seed, so it is identical across --jobs
  /// and reruns.
  double crash_rate_per_pe_per_min = 0.0;
  double mttr_ms = 3000.0;
  /// Per-query deadline; 0 disables timeouts.  `timeout_fraction` of
  /// queries (chosen by the workload RNG) carry the deadline.
  double query_timeout_ms = 0.0;
  double timeout_fraction = 1.0;
  RetryPolicy retry;
  /// Transient disk errors: each physical disk access fails with this
  /// probability (drawn from a dedicated per-PE RNG fork) and is retried at
  /// the driver with a fixed penalty, up to `io_retry_limit` retries per
  /// access; a chain that exhausts its retries surfaces the last error
  /// without another reissue, so io_errors >= io_retries always holds.
  double io_error_rate = 0.0;
  int io_retry_limit = 3;
  double io_retry_penalty_ms = 5.0;

  /// True when PE failures or gray faults are configured (scripted or by
  /// rate): the fault processes are spawned and queries run supervised.
  bool FailuresEnabled() const {
    return !events.empty() || crash_rate_per_pe_per_min > 0.0;
  }
  /// True when per-query deadlines are configured.
  bool TimeoutsEnabled() const {
    return query_timeout_ms > 0.0 && timeout_fraction > 0.0;
  }
  /// True when transient disk errors are configured.  Pure latency faults:
  /// no supervision needed, the driver absorbs the retries.
  bool DiskFaultsEnabled() const { return io_error_rate > 0.0; }
  /// True when elastic membership events (addpe/drainpe) are scheduled.
  /// Implies FailuresEnabled() (the events vector is non-empty).
  bool ElasticEnabled() const {
    for (const FaultEvent& ev : events) {
      if (ev.kind == FaultKind::kAddPe || ev.kind == FaultKind::kDrainPe) {
        return true;
      }
    }
    return false;
  }
  /// True when queries need supervision (retry/timeout/abort handling).
  bool Enabled() const { return FailuresEnabled() || TimeoutsEnabled(); }
};

/// Parses a fault specification string into `out` (merging with its current
/// values).  Grammar (clauses separated by ';', see docs/robustness.md):
///
///   crash@<ms>:pe<N>      schedule a crash of PE N at time <ms>
///   recover@<ms>:pe<N>    schedule a recovery of PE N at time <ms>
///   slowdisk@<ms>:pe<N>:x<M>        multiply PE N's disk service by M (>= 1;
///                                   x1 restores normal speed)
///   partition@<ms>:pe<A>-pe<B>      cut the A<->B link at time <ms>
///   heal@<ms>:pe<A>-pe<B>           restore the A<->B link
///   slowlink@<ms>:pe<A>-pe<B>:x<M>  multiply the A<->B wire delay by M
///   addpe@<ms>:pe<N>      elastic resize: spare PE N joins at time <ms>
///                         (N is held out of the initial declustering)
///   drainpe@<ms>:pe<N>    elastic resize: PE N drains (fragments migrate
///                         out, then N leaves the membership)
///   rate=<r>              random crashes per PE per minute
///   mttr=<ms>             mean time to repair for random crashes
///   timeout=<ms>          per-query deadline
///   timeout_frac=<f>      fraction of queries carrying the deadline
///   retries=<n>           RetryPolicy::max_attempts
///   iorate=<r>            transient disk error probability per access
///
/// Example: "crash@8000:pe3;recover@12000:pe3;timeout=5000".
/// Rejects what is wrong in the spec alone, with an error quoting the
/// clause: unknown kinds and keys, malformed or non-finite numbers, factors
/// below 1, iorate outside [0, 1), self-links and duplicate clauses.  Rules
/// that need the rest of the config (PE ranges, retries >= 1, timeout >= 0,
/// the membership timeline) are SystemConfig::Validate()'s; the figure
/// drivers run it on every point after applying --faults.
Status ParseFaultSpec(const std::string& spec, FaultConfig* out);

/// Overload-adaptive graceful degradation.  The control node classifies the
/// system per load-report round (control_report_interval_ms) from the avg
/// alive-PE CPU utilization and the avg admission queue depth:
///
///   normal --(pressure >= degrade thresholds for enter_rounds)--> degraded
///   degraded --(queue >= shed threshold for enter_rounds)-------> shedding
///   shedding --(queue < exit threshold for exit_rounds)---------> degraded
///   degraded --(pressure < exit thresholds for exit_rounds)-----> normal
///
/// While degraded, join plans are capped at ceil(alive * parallelism_factor)
/// PEs and counted via queries_degraded; while shedding, new complex queries
/// are additionally rejected at admission with kResourceExhausted and
/// counted via queries_shed.  Exit thresholds sit below the enter thresholds
/// (hysteresis), so the state cannot flap on a single borderline round.
struct OverloadConfig {
  bool enabled = false;
  /// Enter degraded when cpu >= this OR queue >= degrade_queue_threshold.
  double degrade_cpu_threshold = 0.90;
  double degrade_queue_threshold = 4.0;
  /// Escalate degraded -> shedding when queue >= this.
  double shed_queue_threshold = 16.0;
  /// De-escalate when cpu < exit_cpu AND queue < exit_queue.
  double exit_cpu_threshold = 0.75;
  double exit_queue_threshold = 2.0;
  int enter_rounds = 2;  ///< Consecutive hot rounds before escalating.
  int exit_rounds = 3;   ///< Consecutive cool rounds before de-escalating.
  /// Degree cap while degraded/shedding: ceil(alive * this), at least 1.
  double parallelism_factor = 0.5;
};

/// Elastic cluster resize (engine/elastic.h).  Only consulted when the fault
/// schedule contains addpe/drainpe events; otherwise no migration machinery
/// runs and event streams are untouched.
struct ElasticConfig {
  /// Migration bandwidth cap in MB/s per active fragment move.  Each page
  /// batch takes at least batch_bytes / cap simulated time, so foreground
  /// queries keep most of the network/disk capacity (--migration-bw).
  double migration_bw_mbps = 32.0;
  /// Pages copied per migration batch.  The batch is the unit of crash
  /// unwind: a crash mid-batch discards the partial destination pages.
  int migration_batch_pages = 16;
};

/// Top-level configuration; defaults reproduce the paper's base setting.
struct SystemConfig {
  // --- configuration settings -------------------------------------------
  int num_pes = 40;            ///< #PE, varied in {10,20,40,60,80}.
  int cpus_per_pe = 1;
  double mips_per_pe = 20.0;   ///< CPU speed per PE.
  CpuCosts costs;
  DiskConfig disk;
  BufferConfig buffer;
  NetworkConfig network;
  int multiprogramming_level = 64;  ///< Max concurrent txns per PE.

  // --- database ----------------------------------------------------------
  RelationConfig relation_a{.name = "A", .num_tuples = 250000};
  RelationConfig relation_b{.name = "B", .num_tuples = 1000000};
  /// Third relation for multi-way joins; declustered over all PEs.
  RelationConfig relation_c{.name = "C", .num_tuples = 500000};
  /// Fraction of PEs holding relation A (paper: 20%; B gets the rest).
  double a_node_fraction = 0.2;

  // --- workload ----------------------------------------------------------
  JoinQueryConfig join_query;
  ScanQueryConfig scan_query;
  UpdateQueryConfig update_query;
  MultiwayJoinConfig multiway_join;
  OltpConfig oltp;
  StrategyConfig strategy;

  // --- control node ------------------------------------------------------
  /// Period with which PEs report CPU/memory utilization to the control node.
  /// Between reports the control node extrapolates via the adaptive
  /// LUC/LUM feedback (NoteJoinScheduled).
  double control_report_interval_ms = 1000.0;
  /// Artificial utilization bump applied at the control node when a PE is
  /// selected for join processing (the "adaptive variation" of LUC/LUM).
  bool adaptive_selection_feedback = true;
  /// PPHJ memory adaptivity: running joins opportunistically re-expand
  /// their working space when buffer pages free up (ablation knob).
  bool pphj_opportunistic_growth = true;
  /// Local join algorithm (PPHJ per the paper; sort-merge as the [26]
  /// baseline for the ablation bench).
  LocalJoinMethod local_join_method = LocalJoinMethod::kPPHJ;
  /// Read-query/update concurrency control (paper footnote 1).
  CcScheme cc_scheme = CcScheme::kNoReadLocks;
  /// Shared Nothing (paper) or Shared Disk ([27] extension).
  Architecture architecture = Architecture::kSharedNothing;

  // --- simulation --------------------------------------------------------
  uint64_t seed = 42;
  TraceConfig trace;
  /// Fault injection and per-query deadlines (engine/faults.h).  Disabled
  /// by default; see FaultConfig.
  FaultConfig faults;
  /// Overload-adaptive degradation thresholds (core/control_node.h).
  /// Disabled by default: ShouldShed() is then constant-false and the
  /// degree cap is a no-op, so plans and event streams are untouched.
  OverloadConfig overload;
  /// Elastic resize knobs (migration bandwidth/batching); inert unless the
  /// fault schedule contains addpe/drainpe events.
  ElasticConfig elastic;
  double warmup_ms = 5000.0;        ///< Statistics reset after warm-up.
  double measurement_ms = 60000.0;  ///< Measured simulation horizon.
  /// Single-user mode: join queries run back to back with nothing else in
  /// the system (the paper's baseline curves).  Open arrivals are disabled.
  bool single_user_mode = false;
  int single_user_queries = 30;     ///< Queries executed in single-user mode.

  // --- derived quantities --------------------------------------------------
  int NumANodes() const;
  int NumBNodes() const { return num_pes - NumANodes(); }
  /// Pages of a relation: ceil(num_tuples / blocking_factor).
  static int64_t RelationPages(const RelationConfig& rel);
  /// Pages of the join's inner input (scan output on A) including nothing:
  /// ceil(selected tuples / blocking factor).
  int64_t InnerInputPages() const;
  int64_t OuterInputPages() const;
  int64_t InnerInputTuples() const;
  int64_t OuterInputTuples() const;

  /// Validates parameter ranges; returns the first violation found.
  Status Validate() const;
};

/// Open arrivals per second of a class configured per PE.
template <auto kClassConfig>
constexpr double PerPe(const SystemConfig& c) {
  return (c.*kClassConfig).arrival_rate_per_pe_qps * c.num_pes;
}

/// The query classes, indexed by QueryClass.
inline constexpr QueryClassInfo kQueryClasses[kNumQueryClasses] = {
    // token, arrivals_per_second, stream, trace_stream, shed, terminal
    {"join", PerPe<&SystemConfig::join_query>, 10, 1, true, false},
    {"scan", PerPe<&SystemConfig::scan_query>, 20, 2, false, false},
    {"update", PerPe<&SystemConfig::update_query>, 30, 3, false, false},
    {"multiway", PerPe<&SystemConfig::multiway_join>, 40, 4, true, false},
    {"oltp",
     [](const SystemConfig& c) {
       return c.oltp.enabled ? c.oltp.tps_per_node : 0.0;
     },
     1000, 1000, false, true},
};

/// Strategy shorthands used throughout benches/examples/tests.
namespace strategies {
StrategyConfig PsuOptRandom();
StrategyConfig PsuOptLUC();
StrategyConfig PsuOptLUM();
StrategyConfig PsuNoIORandom();
StrategyConfig PsuNoIOLUC();
StrategyConfig PsuNoIOLUM();
StrategyConfig PmuCpuRandom();
StrategyConfig PmuCpuLUM();
StrategyConfig RateMatchRandom();
StrategyConfig RateMatchLUC();
StrategyConfig RateMatchLUM();
StrategyConfig MinIO();
StrategyConfig MinIOSuOpt();
StrategyConfig OptIOCpu();
}  // namespace strategies

}  // namespace pdblb

#endif  // PDBLB_COMMON_CONFIG_H_
