// Copyright 2026 the pdblb authors. MIT license.
//
// The determinism tests' report comparison: walks the MetricsReport
// declaration (engine/metrics.h), so a new field is compared as soon as it
// is declared.

#ifndef PDBLB_TESTS_EXPECT_IDENTICAL_REPORTS_H_
#define PDBLB_TESTS_EXPECT_IDENTICAL_REPORTS_H_

#include <gtest/gtest.h>

#include <cstring>

#include "engine/metrics.h"

namespace pdblb {

/// Expects `a` and `b` to agree bit for bit on every seed-deterministic
/// field: all but the host-measured wall_seconds and kernel_events_per_sec.
inline void ExpectIdenticalReports(const MetricsReport& a,
                                   const MetricsReport& b) {
  ForEachReportField([&](const ReportField& field, auto member) {
    if (field.host_measured) return;
    const auto& x = a.*member;
    const auto& y = b.*member;
    EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
        << field.name << ": " << testing::PrintToString(x) << " vs "
        << testing::PrintToString(y);
  });
}

}  // namespace pdblb

#endif  // PDBLB_TESTS_EXPECT_IDENTICAL_REPORTS_H_
