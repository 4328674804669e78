// Copyright 2026 the pdblb authors. MIT license.

#include "workload/trace.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "simkern/rng.h"

namespace pdblb {
namespace {

Status ParseClassToken(const std::string& token, TraceEvent* event) {
  const size_t colon = token.find(':');
  const std::string_view name = std::string_view(token).substr(0, colon);
  size_t i = 0;
  while (i < kNumQueryClasses && name != kQueryClasses[i].token) ++i;
  // Only an OLTP event names a node, and it must.
  const bool oltp = i == static_cast<size_t>(QueryClass::kOltp);
  if (i == kNumQueryClasses || oltp != (colon != std::string::npos)) {
    return Status::InvalidArgument("unknown trace class: " + token);
  }
  event->cls = static_cast<QueryClass>(i);
  if (!oltp) return Status::OK();
  if (!ParseNumber(std::string_view(token).substr(colon + 1),
                   &event->oltp_node)) {
    return Status::InvalidArgument("bad oltp node in trace: " + token);
  }
  if (event->oltp_node < 0) {
    return Status::InvalidArgument("negative oltp node: " + token);
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
    out << buf << ' ' << kQueryClasses[static_cast<size_t>(e.cls)].token;
    if (e.cls == QueryClass::kOltp) out << ':' << e.oltp_node;
    out << '\n';
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
  out.close();  // flushes: a full disk may show only here
  return out ? Status::OK() : Status::IoError("write failed: " + path);
}

Status Trace::ReadFile(const std::string& path, Trace* out) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromText(buf.str(), out);
}

Trace SynthesizeTrace(uint64_t seed, SimTime horizon_ms,
                      const std::vector<ClassRate>& rates,
                      const std::vector<PeId>& oltp_nodes) {
  std::array<double, kNumQueryClasses> per_second{};
  for (const ClassRate& r : rates) {
    per_second[static_cast<size_t>(r.cls)] = r.per_second;
  }
  Trace trace;
  sim::Rng root(seed);
  for (size_t i = 0; i < kNumQueryClasses; ++i) {
    if (per_second[i] <= 0.0) continue;
    const auto cls = static_cast<QueryClass>(i);
    const double mean_ms = 1000.0 / per_second[i];
    auto draw = [&](PeId node) {
      sim::Rng rng = root.Fork(kQueryClasses[i].trace_stream +
                               static_cast<uint64_t>(node));
      for (SimTime t = rng.Exponential(mean_ms); t < horizon_ms;
           t += rng.Exponential(mean_ms)) {
        trace.Add(TraceEvent{t, cls, node});
      }
    };
    if (cls == QueryClass::kOltp) {
      for (PeId node : oltp_nodes) draw(node);
    } else {
      draw(0);
    }
  }
  trace.SortByArrival();
  return trace;
}

}  // namespace pdblb
