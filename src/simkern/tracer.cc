// Copyright 2026 the pdblb authors. MIT license.

#include "simkern/tracer.h"

#include <cstdio>

namespace pdblb::sim {

std::string Tracer::ToCsv() const {
  std::string out = kCsvHeader;
  const size_t n = ring_.size();
  out.reserve(out.size() + n * 48);
  // Ordinals are global push positions: the oldest retained record is
  // number total() - size() (earlier ones were overwritten in place).
  uint64_t first = ring_.total() - n;
  char row[96];
  for (size_t i = 0; i < n; ++i) {
    const TraceRecord& r = ring_.At(i);
    int len = std::snprintf(
        row, sizeof(row), "%llu,%.6f,%s,%s,%u,%u\n",
        static_cast<unsigned long long>(first + i), r.at,
        TraceEventKindName(r.kind),
        TraceSubsystemName(r.tag >> TraceTag::kOriginBits),
        static_cast<unsigned>(r.tag & TraceTag::kOriginMask),
        static_cast<unsigned>(r.seq));
    out.append(row, static_cast<size_t>(len));
  }
  return out;
}

Status Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write trace to " + path);
  }
  std::string csv = ToCsv();
  size_t written = std::fwrite(csv.data(), 1, csv.size(), f);
  // A full disk may show only when fclose flushes the buffer.
  const bool ok = written == csv.size() && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace pdblb::sim
