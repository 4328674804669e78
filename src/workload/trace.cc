// Copyright 2026 the pdblb authors. MIT license.

#include "workload/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/config.h"
#include "simkern/rng.h"

namespace pdblb {
namespace {

std::string ClassToken(const TraceEvent& e) {
  switch (e.cls) {
    case TraceClass::kJoin:
      return "join";
    case TraceClass::kScan:
      return "scan";
    case TraceClass::kUpdate:
      return "update";
    case TraceClass::kMultiwayJoin:
      return "multiway";
    case TraceClass::kOltp:
      return "oltp:" + std::to_string(e.oltp_node);
  }
  return "?";
}

Status ParseClassToken(const std::string& token, TraceEvent* event) {
  if (token == "join") {
    event->cls = TraceClass::kJoin;
  } else if (token == "scan") {
    event->cls = TraceClass::kScan;
  } else if (token == "update") {
    event->cls = TraceClass::kUpdate;
  } else if (token == "multiway") {
    event->cls = TraceClass::kMultiwayJoin;
  } else if (token.rfind("oltp:", 0) == 0) {
    event->cls = TraceClass::kOltp;
    if (!ParseNumber(std::string_view(token).substr(5), &event->oltp_node)) {
      return Status::InvalidArgument("bad oltp node in trace: " + token);
    }
    if (event->oltp_node < 0) {
      return Status::InvalidArgument("negative oltp node: " + token);
    }
  } else {
    return Status::InvalidArgument("unknown trace class: " + token);
  }
  return Status::OK();
}

}  // namespace

void Trace::SortByArrival() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.arrival_ms < b.arrival_ms;
                   });
}

std::string Trace::ToText() const {
  std::ostringstream out;
  out << "# pdblb workload trace: <arrival_ms> <class>\n";
  for (const TraceEvent& e : events_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", e.arrival_ms);
    out << buf << ' ' << ClassToken(e) << '\n';
  }
  return out.str();
}

Status Trace::FromText(const std::string& text, Trace* out) {
  Trace trace;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    TraceEvent event;
    std::string arrival, cls, extra;
    if (!(fields >> arrival >> cls) || fields >> extra ||
        !ParseNumber(arrival, &event.arrival_ms)) {
      return Status::InvalidArgument("malformed trace line " +
                                     std::to_string(lineno) + ": " + line);
    }
    if (event.arrival_ms < 0) {
      return Status::InvalidArgument("negative arrival at line " +
                                     std::to_string(lineno));
    }
    if (Status st = ParseClassToken(cls, &event); !st.ok()) return st;
    trace.Add(event);
  }
  trace.SortByArrival();
  *out = std::move(trace);
  return Status::OK();
}

Status Trace::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << ToText();
  return out ? Status::OK() : Status::IoError("write failed: " + path);
}

Status Trace::ReadFile(const std::string& path, Trace* out) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromText(buf.str(), out);
}

Trace SynthesizeTrace(uint64_t seed, SimTime horizon_ms, double join_qps,
                      double scan_qps, double update_qps, double multiway_qps,
                      const std::vector<PeId>& oltp_nodes,
                      double oltp_tps_per_node) {
  Trace trace;
  sim::Rng root(seed);
  auto draw = [&](uint64_t stream, double rate_per_second, TraceClass cls,
                  PeId node) {
    if (rate_per_second <= 0.0) return;
    sim::Rng rng = root.Fork(stream);
    double mean_ms = 1000.0 / rate_per_second;
    for (SimTime t = rng.Exponential(mean_ms); t < horizon_ms;
         t += rng.Exponential(mean_ms)) {
      trace.Add(TraceEvent{t, cls, node});
    }
  };
  draw(1, join_qps, TraceClass::kJoin, 0);
  draw(2, scan_qps, TraceClass::kScan, 0);
  draw(3, update_qps, TraceClass::kUpdate, 0);
  draw(4, multiway_qps, TraceClass::kMultiwayJoin, 0);
  for (PeId node : oltp_nodes) {
    draw(1000 + static_cast<uint64_t>(node), oltp_tps_per_node,
         TraceClass::kOltp, node);
  }
  trace.SortByArrival();
  return trace;
}

}  // namespace pdblb
