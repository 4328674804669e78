// Copyright 2026 the pdblb authors. MIT license.

#include "common/config.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

namespace pdblb {

std::string StrategyConfig::Name() const {
  std::string name;
  switch (integrated) {
    case IntegratedPolicyKind::kMinIO:
      name = "MIN-IO";
      break;
    case IntegratedPolicyKind::kMinIOSuOpt:
      name = "MIN-IO-SUOPT";
      break;
    case IntegratedPolicyKind::kOptIOCpu:
      name = "OPT-IO-CPU";
      break;
    case IntegratedPolicyKind::kNone:
      break;
  }
  if (!name.empty()) {
    if (skew_aware_assignment) name += " (skew-aware)";
    return name;
  }
  switch (degree) {
    case DegreePolicyKind::kStaticSuOpt:
      name = "p_su-opt";
      break;
    case DegreePolicyKind::kStaticSuNoIO:
      name = "p_su-noIO";
      break;
    case DegreePolicyKind::kDynamicCpu:
      name = "p_mu-cpu";
      break;
    case DegreePolicyKind::kRateMatch:
      name = "RateMatch";
      break;
  }
  name += " + ";
  switch (selection) {
    case SelectionPolicyKind::kRandom:
      name += "RANDOM";
      break;
    case SelectionPolicyKind::kLUC:
      name += "LUC";
      break;
    case SelectionPolicyKind::kLUM:
      name += "LUM";
      break;
  }
  if (skew_aware_assignment) name += " (skew-aware)";
  return name;
}

int SystemConfig::NumANodes() const {
  int a = static_cast<int>(std::lround(a_node_fraction * num_pes));
  return std::clamp(a, 1, num_pes - 1);
}

int64_t SystemConfig::RelationPages(const RelationConfig& rel) {
  if (rel.blocking_factor <= 0) return 0;
  return (rel.num_tuples + rel.blocking_factor - 1) / rel.blocking_factor;
}

int64_t SystemConfig::InnerInputTuples() const {
  return static_cast<int64_t>(
      std::llround(join_query.scan_selectivity * relation_a.num_tuples));
}

int64_t SystemConfig::OuterInputTuples() const {
  return static_cast<int64_t>(
      std::llround(join_query.scan_selectivity * relation_b.num_tuples));
}

int64_t SystemConfig::InnerInputPages() const {
  int64_t tuples = InnerInputTuples();
  int bf = relation_a.blocking_factor;
  return (tuples + bf - 1) / bf;
}

int64_t SystemConfig::OuterInputPages() const {
  int64_t tuples = OuterInputTuples();
  int bf = relation_b.blocking_factor;
  return (tuples + bf - 1) / bf;
}

Status SystemConfig::Validate() const {
  if (num_pes < 2) {
    return Status::InvalidArgument("num_pes must be >= 2");
  }
  if (cpus_per_pe < 1) {
    return Status::InvalidArgument("cpus_per_pe must be >= 1");
  }
  if (mips_per_pe <= 0) {
    return Status::InvalidArgument("mips_per_pe must be positive");
  }
  if (buffer.buffer_pages < 1) {
    return Status::InvalidArgument("buffer_pages must be >= 1");
  }
  if (buffer.page_size_bytes < 512) {
    return Status::InvalidArgument("page_size_bytes must be >= 512");
  }
  if (disk.disks_per_pe < 1) {
    return Status::InvalidArgument("disks_per_pe must be >= 1");
  }
  if (disk.prefetch_pages < 1) {
    return Status::InvalidArgument("prefetch_pages must be >= 1");
  }
  if (a_node_fraction <= 0.0 || a_node_fraction >= 1.0) {
    return Status::InvalidArgument("a_node_fraction must be in (0,1)");
  }
  if (join_query.scan_selectivity <= 0.0 || join_query.scan_selectivity > 1.0) {
    return Status::InvalidArgument("scan_selectivity must be in (0,1]");
  }
  if (join_query.fudge_factor < 1.0) {
    return Status::InvalidArgument("fudge_factor must be >= 1.0");
  }
  if (join_query.redistribution_skew < 0.0 ||
      join_query.redistribution_skew > 4.0) {
    return Status::InvalidArgument("redistribution_skew must be in [0,4]");
  }
  if (relation_a.num_tuples <= 0 || relation_b.num_tuples <= 0) {
    return Status::InvalidArgument("relations must be non-empty");
  }
  if (relation_a.blocking_factor <= 0 || relation_b.blocking_factor <= 0) {
    return Status::InvalidArgument("blocking_factor must be positive");
  }
  if (multiprogramming_level < 1) {
    return Status::InvalidArgument("multiprogramming_level must be >= 1");
  }
  if (measurement_ms <= 0) {
    return Status::InvalidArgument("measurement_ms must be positive");
  }
  if (oltp.enabled && oltp.tps_per_node <= 0) {
    return Status::InvalidArgument("oltp.tps_per_node must be positive");
  }
  // Checked with no arrivals configured too: a trace can start any class.
  if (scan_query.selectivity <= 0.0 || scan_query.selectivity > 1.0) {
    return Status::InvalidArgument("scan_query.selectivity must be in (0,1]");
  }
  if (update_query.selectivity <= 0.0 || update_query.selectivity > 1.0) {
    return Status::InvalidArgument(
        "update_query.selectivity must be in (0,1]");
  }
  if (multiway_join.ways < 3) {
    return Status::InvalidArgument("multiway_join.ways must be >= 3");
  }
  if (relation_c.num_tuples <= 0 || relation_c.blocking_factor <= 0) {
    return Status::InvalidArgument("relation_c must be non-empty");
  }
  for (const FaultEvent& ev : faults.events) {
    if (ev.pe < 0 || ev.pe >= num_pes) {
      return Status::OutOfRange("faults.events: pe out of range");
    }
    if (ev.at_ms < 0.0) {
      return Status::InvalidArgument("faults.events: at_ms must be >= 0");
    }
    const bool link_kind = ev.kind == FaultKind::kPartition ||
                           ev.kind == FaultKind::kHeal ||
                           ev.kind == FaultKind::kSlowLink;
    if (link_kind) {
      if (ev.pe2 < 0 || ev.pe2 >= num_pes) {
        return Status::OutOfRange("faults.events: pe2 out of range");
      }
      if (ev.pe2 == ev.pe) {
        return Status::InvalidArgument(
            "faults.events: link endpoints must differ");
      }
    }
    if ((ev.kind == FaultKind::kSlowDisk || ev.kind == FaultKind::kSlowLink) &&
        ev.factor < 1.0) {
      // These clauses model slow-downs only; a factor below 1 would be a
      // speed-up.
      return Status::InvalidArgument("faults.events: factor must be >= 1");
    }
  }
  if (faults.ElasticEnabled()) {
    if (architecture != Architecture::kSharedNothing) {
      return Status::InvalidArgument(
          "addpe/drainpe events require Shared Nothing (fragment ownership "
          "is meaningless when every PE reaches every spindle)");
    }
    // Spares = addpe targets; they are held out of the initial declustering
    // (catalog/database.cc), so the remaining members must still cover both
    // relation home groups and every PE joins at most once.
    std::set<int> spares;
    for (const FaultEvent& ev : faults.events) {
      if (ev.kind != FaultKind::kAddPe) continue;
      if (!spares.insert(ev.pe).second) {
        return Status::InvalidArgument(
            "faults.events: a PE may be the target of at most one addpe");
      }
    }
    int a_members = 0;
    int b_members = 0;
    for (int pe = 0; pe < num_pes; ++pe) {
      if (spares.count(pe) != 0) continue;
      if (pe < NumANodes()) {
        ++a_members;
      } else {
        ++b_members;
      }
    }
    if (a_members < 1 || b_members < 1) {
      return Status::InvalidArgument(
          "faults.events: addpe spares must leave at least one member "
          "A-node and one member B-node in the initial declustering");
    }
    // Membership timeline: drains of a spare need the add to come first,
    // and the member count must never fall below 2 (queries need a
    // coordinator and at least one distinct processor).
    std::vector<const FaultEvent*> membership;
    for (const FaultEvent& ev : faults.events) {
      if (ev.kind == FaultKind::kAddPe || ev.kind == FaultKind::kDrainPe) {
        membership.push_back(&ev);
      }
    }
    std::stable_sort(membership.begin(), membership.end(),
                     [](const FaultEvent* a, const FaultEvent* b) {
                       return a->at_ms < b->at_ms;
                     });
    std::set<int> members;
    for (int pe = 0; pe < num_pes; ++pe) {
      if (spares.count(pe) == 0) members.insert(pe);
    }
    for (const FaultEvent* ev : membership) {
      if (ev->kind == FaultKind::kAddPe) {
        members.insert(ev->pe);
        continue;
      }
      if (members.erase(ev->pe) == 0) {
        return Status::InvalidArgument(
            "faults.events: drainpe target is not a member at that time "
            "(a spare must be added before it can drain)");
      }
      if (members.size() < 2) {
        return Status::InvalidArgument(
            "faults.events: drainpe would leave fewer than 2 members");
      }
    }
    if (oltp.enabled) {
      // OLTP relations are node-private and never migrate, so draining an
      // OLTP node would strand its fragment.  OLTP placement is computed
      // over the initial (non-spare) membership.
      for (const FaultEvent& ev : faults.events) {
        if (ev.kind != FaultKind::kDrainPe) continue;
        if (spares.count(ev.pe) != 0) continue;  // spares never host OLTP
        const bool is_a_node = ev.pe < NumANodes();
        const bool hosts_oltp =
            oltp.placement == OltpPlacement::kAllNodes ||
            (oltp.placement == OltpPlacement::kANodes && is_a_node) ||
            (oltp.placement == OltpPlacement::kBNodes && !is_a_node);
        if (hosts_oltp) {
          return Status::InvalidArgument(
              "faults.events: cannot drain an OLTP node (its node-private "
              "OLTP relation does not migrate)");
        }
      }
    }
  }
  if (faults.crash_rate_per_pe_per_min < 0.0) {
    return Status::InvalidArgument(
        "faults.crash_rate_per_pe_per_min must be >= 0");
  }
  if (faults.crash_rate_per_pe_per_min > 0.0 && faults.mttr_ms <= 0.0) {
    return Status::InvalidArgument(
        "faults.mttr_ms must be positive when a crash rate is set");
  }
  if (faults.query_timeout_ms < 0.0) {
    return Status::InvalidArgument("faults.query_timeout_ms must be >= 0");
  }
  if (faults.timeout_fraction < 0.0 || faults.timeout_fraction > 1.0) {
    return Status::InvalidArgument("faults.timeout_fraction must be in [0,1]");
  }
  if (faults.retry.max_attempts < 1) {
    return Status::InvalidArgument("faults.retry.max_attempts must be >= 1");
  }
  if (faults.retry.initial_backoff_ms < 0.0 ||
      faults.retry.initial_backoff_ms > RetryPolicy::kMaxBackoffMs) {
    return Status::InvalidArgument(
        "faults.retry.initial_backoff_ms must be in [0, 1000]");
  }
  if (faults.io_error_rate < 0.0 || faults.io_error_rate >= 1.0) {
    return Status::InvalidArgument("faults.io_error_rate must be in [0, 1)");
  }
  if (overload.enabled) {
    if (overload.degrade_queue_threshold < 0.0 ||
        overload.exit_queue_threshold > overload.degrade_queue_threshold ||
        overload.shed_queue_threshold < overload.degrade_queue_threshold) {
      return Status::InvalidArgument(
          "overload queue thresholds must satisfy "
          "0 <= exit <= degrade <= shed");
    }
    if (overload.enter_rounds < 1 || overload.exit_rounds < 1) {
      return Status::InvalidArgument(
          "overload enter/exit rounds must be >= 1");
    }
  }
  return Status::OK();
}

// --- fault-spec parsing ----------------------------------------------------

namespace {

// Parses "pe<N>" into *pe; returns false on malformed input.
bool ParsePeToken(std::string_view token, int* pe) {
  return token.substr(0, 2) == "pe" && ParseNumber(token.substr(2), pe) &&
         *pe >= 0;
}

// Formats a fault-spec error so the offending clause can be found without
// counting semicolons: the clause is quoted verbatim and `offset` names its
// starting byte within the full spec string.
Status ClauseError(const std::string& what, const std::string& clause,
                   size_t offset) {
  return Status::InvalidArgument("fault spec: " + what + " in clause \"" +
                                 clause + "\" (byte " +
                                 std::to_string(offset) + ")");
}

// Splits a scheduled clause — "crash@8000:pe3", "slowdisk@8000:pe3:x4",
// "partition@8000:pe1-pe2", "slowlink@8000:pe1-pe2:x3", "addpe@9000:pe6" —
// into `ev`.  The shape after '@' is <ms>:<endpoint>[:x<M>]; link kinds take
// a pe<A>-pe<B> endpoint pair, multiplier kinds require the trailing :x<M>
// factor.  `offset` is the clause's starting byte in the enclosing spec,
// threaded through so every error can point at it.
Status ParseScheduledClause(const std::string& clause, size_t offset,
                            FaultEvent* ev) {
  size_t at = clause.find('@');
  if (at == std::string::npos) {
    return ClauseError("missing '@'", clause, offset);
  }
  std::string kind = clause.substr(0, at);
  bool wants_pair = false;
  bool wants_factor = false;
  if (kind == "crash") {
    ev->kind = FaultKind::kCrash;
  } else if (kind == "recover") {
    ev->kind = FaultKind::kRecover;
  } else if (kind == "slowdisk") {
    ev->kind = FaultKind::kSlowDisk;
    wants_factor = true;
  } else if (kind == "partition") {
    ev->kind = FaultKind::kPartition;
    wants_pair = true;
  } else if (kind == "heal") {
    ev->kind = FaultKind::kHeal;
    wants_pair = true;
  } else if (kind == "slowlink") {
    ev->kind = FaultKind::kSlowLink;
    wants_pair = true;
    wants_factor = true;
  } else if (kind == "addpe") {
    ev->kind = FaultKind::kAddPe;
  } else if (kind == "drainpe") {
    ev->kind = FaultKind::kDrainPe;
  } else {
    return ClauseError(
        "unknown fault kind (want crash|recover|slowdisk|partition|heal|"
        "slowlink|addpe|drainpe)",
        clause, offset);
  }

  std::vector<std::string> parts;  // <ms>, <endpoint>[, x<M>]
  for (size_t pos = at + 1; pos <= clause.size();) {
    size_t end = clause.find(':', pos);
    if (end == std::string::npos) end = clause.size();
    parts.push_back(clause.substr(pos, end - pos));
    pos = end + 1;
  }
  size_t expected = wants_factor ? 3 : 2;
  if (parts.size() != expected) {
    return ClauseError("want " + kind + "@<ms>:" +
                           (wants_pair ? "pe<A>-pe<B>" : "pe<N>") +
                           (wants_factor ? ":x<M>" : ""),
                       clause, offset);
  }
  if (!ParseNumber(parts[0], &ev->at_ms)) {
    return ClauseError("bad time \"" + parts[0] + "\"", clause, offset);
  }

  const std::string& endpoint = parts[1];
  if (wants_pair) {
    size_t dash = endpoint.find('-');
    if (dash == std::string::npos ||
        !ParsePeToken(endpoint.substr(0, dash), &ev->pe) ||
        !ParsePeToken(endpoint.substr(dash + 1), &ev->pe2)) {
      return ClauseError("bad endpoints (want pe<A>-pe<B>)", clause, offset);
    }
    if (ev->pe == ev->pe2) {
      return ClauseError("endpoints must differ", clause, offset);
    }
  } else if (!ParsePeToken(endpoint, &ev->pe)) {
    return ClauseError("bad PE \"" + endpoint + "\" (want pe<N>)", clause,
                       offset);
  }

  if (wants_factor) {
    const std::string& f = parts[2];
    if (f.empty() || f[0] != 'x' ||
        !ParseNumber(std::string_view(f).substr(1), &ev->factor)) {
      return ClauseError("bad multiplier \"" + f + "\" (want x<M>)", clause,
                         offset);
    }
    if (ev->factor < 1.0) {
      return ClauseError("multiplier must be >= 1 (x1 restores)", clause,
                         offset);
    }
  }
  return Status::OK();
}

}  // namespace

const char* EvictionPolicyName(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return "lru";
    case EvictionPolicyKind::kLruK:
      return "lru-k";
    case EvictionPolicyKind::kLfu:
      return "lfu";
    case EvictionPolicyKind::kClock:
      return "clock";
  }
  return "lru";
}

Status ParseEvictionPolicy(const std::string& name, EvictionPolicyKind* out) {
  if (name == "lru") {
    *out = EvictionPolicyKind::kLru;
  } else if (name == "lru-k" || name == "lru2" || name == "lru-2") {
    *out = EvictionPolicyKind::kLruK;
  } else if (name == "lfu") {
    *out = EvictionPolicyKind::kLfu;
  } else if (name == "clock") {
    *out = EvictionPolicyKind::kClock;
  } else {
    return Status::InvalidArgument(
        "unknown eviction policy (want lru|lru-k|lfu|clock): " + name);
  }
  return Status::OK();
}

Status ParseFaultSpec(const std::string& spec, FaultConfig* out) {
  // Scripted clauses that restate an identical event — same kind, instant
  // and target(s) — used to be accepted with silent last-wins ordering;
  // reject them eagerly like every other spec error.  The key includes the
  // kind on purpose: distinct kinds at the same (time, PE) are legitimate
  // and apply in spec order (e.g. "crash@3000:pe2;recover@3000:pe2" is a
  // bounce; FaultTest pins that tie-break).
  std::set<std::tuple<int, double, int, int>> seen;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t clause_start = pos;
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;
    size_t eq = clause.find('=');
    if (eq != std::string::npos && clause.find('@') == std::string::npos) {
      std::string key = clause.substr(0, eq);
      std::string val = clause.substr(eq + 1);
      bool parsed = false;
      if (key == "rate") {
        parsed = ParseNumber(val, &out->crash_rate_per_pe_per_min);
      } else if (key == "mttr") {
        parsed = ParseNumber(val, &out->mttr_ms);
      } else if (key == "timeout") {
        parsed = ParseNumber(val, &out->query_timeout_ms);
      } else if (key == "timeout_frac") {
        parsed = ParseNumber(val, &out->timeout_fraction);
      } else if (key == "retries") {
        parsed = ParseNumber(val, &out->retry.max_attempts);
      } else if (key == "iorate") {
        parsed = ParseNumber(val, &out->io_error_rate);
        if (parsed && (out->io_error_rate < 0.0 || out->io_error_rate >= 1.0)) {
          return ClauseError("iorate must be in [0, 1)", clause, clause_start);
        }
      } else {
        return ClauseError("unknown key \"" + key +
                               "\" (want rate|mttr|timeout|timeout_frac|"
                               "retries|iorate)",
                           clause, clause_start);
      }
      if (!parsed) {
        return ClauseError("bad value \"" + val + "\"", clause, clause_start);
      }
      continue;
    }
    FaultEvent ev;
    PDBLB_RETURN_IF_ERROR(ParseScheduledClause(clause, clause_start, &ev));
    if (!seen.insert({static_cast<int>(ev.kind), ev.at_ms, ev.pe, ev.pe2})
             .second) {
      return ClauseError(
          "duplicate clause (same kind, time and target appear twice; the "
          "repeat would silently win)",
          clause, clause_start);
    }
    out->events.push_back(ev);
  }
  return Status::OK();
}

namespace strategies {

namespace {
StrategyConfig Isolated(DegreePolicyKind degree, SelectionPolicyKind sel) {
  StrategyConfig s;
  s.integrated = IntegratedPolicyKind::kNone;
  s.degree = degree;
  s.selection = sel;
  return s;
}
StrategyConfig Integrated(IntegratedPolicyKind kind) {
  StrategyConfig s;
  s.integrated = kind;
  return s;
}
}  // namespace

StrategyConfig PsuOptRandom() {
  return Isolated(DegreePolicyKind::kStaticSuOpt, SelectionPolicyKind::kRandom);
}
StrategyConfig PsuOptLUC() {
  return Isolated(DegreePolicyKind::kStaticSuOpt, SelectionPolicyKind::kLUC);
}
StrategyConfig PsuOptLUM() {
  return Isolated(DegreePolicyKind::kStaticSuOpt, SelectionPolicyKind::kLUM);
}
StrategyConfig PsuNoIORandom() {
  return Isolated(DegreePolicyKind::kStaticSuNoIO,
                  SelectionPolicyKind::kRandom);
}
StrategyConfig PsuNoIOLUC() {
  return Isolated(DegreePolicyKind::kStaticSuNoIO, SelectionPolicyKind::kLUC);
}
StrategyConfig PsuNoIOLUM() {
  return Isolated(DegreePolicyKind::kStaticSuNoIO, SelectionPolicyKind::kLUM);
}
StrategyConfig PmuCpuRandom() {
  return Isolated(DegreePolicyKind::kDynamicCpu, SelectionPolicyKind::kRandom);
}
StrategyConfig PmuCpuLUM() {
  return Isolated(DegreePolicyKind::kDynamicCpu, SelectionPolicyKind::kLUM);
}
StrategyConfig RateMatchRandom() {
  return Isolated(DegreePolicyKind::kRateMatch, SelectionPolicyKind::kRandom);
}
StrategyConfig RateMatchLUC() {
  return Isolated(DegreePolicyKind::kRateMatch, SelectionPolicyKind::kLUC);
}
StrategyConfig RateMatchLUM() {
  return Isolated(DegreePolicyKind::kRateMatch, SelectionPolicyKind::kLUM);
}
StrategyConfig MinIO() { return Integrated(IntegratedPolicyKind::kMinIO); }
StrategyConfig MinIOSuOpt() {
  return Integrated(IntegratedPolicyKind::kMinIOSuOpt);
}
StrategyConfig OptIOCpu() {
  return Integrated(IntegratedPolicyKind::kOptIOCpu);
}

}  // namespace strategies
}  // namespace pdblb
