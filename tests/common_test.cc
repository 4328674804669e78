// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for common: Status/StatusOr, units, TextTable and SystemConfig
// (including the paper's derived page counts).

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/status.h"
#include "common/table.h"
#include "common/units.h"

namespace pdblb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(UnitsTest, InstructionToMsConversion) {
  // 25000 instructions at 20 MIPS = 1.25 ms (the paper's BOT cost).
  EXPECT_DOUBLE_EQ(InstructionsToMs(25000, 20.0), 1.25);
  EXPECT_DOUBLE_EQ(InstructionsToMs(20000, 20.0), 1.0);
}

TEST(UnitsTest, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(SecondsToMs(2.5), 2500.0);
  EXPECT_DOUBLE_EQ(MsToSeconds(2500.0), 2.5);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"a", "long-header"});
  t.AddRow({"xxxx", "1"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("a     long-header"), std::string::npos);
  EXPECT_NE(s.find("xxxx  1"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TextTableTest, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(10.0, 0), "10");
}

TEST(SystemConfigTest, PaperDefaultsAreValid) {
  SystemConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok()) << cfg.Validate();
}

TEST(SystemConfigTest, PaperPageCounts) {
  SystemConfig cfg;
  // A: 250,000 tuples / 20 per page = 12,500 pages (100 MB at 8 KB).
  EXPECT_EQ(SystemConfig::RelationPages(cfg.relation_a), 12500);
  // B: 1,000,000 / 20 = 50,000 pages (400 MB).
  EXPECT_EQ(SystemConfig::RelationPages(cfg.relation_b), 50000);
}

TEST(SystemConfigTest, InnerInputAtOnePercentSelectivity) {
  SystemConfig cfg;
  cfg.join_query.scan_selectivity = 0.01;
  EXPECT_EQ(cfg.InnerInputTuples(), 2500);
  EXPECT_EQ(cfg.InnerInputPages(), 125);
  EXPECT_EQ(cfg.OuterInputTuples(), 10000);
  EXPECT_EQ(cfg.OuterInputPages(), 500);
}

TEST(SystemConfigTest, ANodeSplitMatchesPaper) {
  SystemConfig cfg;
  cfg.num_pes = 80;
  EXPECT_EQ(cfg.NumANodes(), 16);  // 20% of 80
  EXPECT_EQ(cfg.NumBNodes(), 64);  // 80%
}

TEST(SystemConfigTest, ANodeSplitAlwaysLeavesBNodes) {
  for (int n : {2, 3, 5, 10, 80}) {
    SystemConfig cfg;
    cfg.num_pes = n;
    EXPECT_GE(cfg.NumANodes(), 1);
    EXPECT_GE(cfg.NumBNodes(), 1);
    EXPECT_EQ(cfg.NumANodes() + cfg.NumBNodes(), n);
  }
}

TEST(SystemConfigTest, RejectsBadParameters) {
  SystemConfig cfg;
  cfg.num_pes = 1;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SystemConfig();
  cfg.join_query.scan_selectivity = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SystemConfig();
  cfg.join_query.fudge_factor = 0.9;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SystemConfig();
  cfg.buffer.buffer_pages = 0;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SystemConfig();
  cfg.disk.disks_per_pe = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

// The number parser behind the fault spec and the drivers' --jobs, --seed
// and --migration-bw: whole tokens and finite values only.
TEST(ParseNumberTest, AcceptsWholeFiniteTokensOnly) {
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("1e3", &d));
  EXPECT_DOUBLE_EQ(d, 1000.0);
  for (const char* bad : {"", "nan", "-inf", "8x", " 8", "1e999"}) {
    EXPECT_FALSE(ParseNumber(bad, &d)) << '"' << bad << '"';
  }
  int jobs = 0;
  EXPECT_FALSE(ParseNumber("2.9", &jobs));
  uint64_t seed = 0;
  EXPECT_FALSE(ParseNumber("-1", &seed));
}

TEST(StrategyConfigTest, NamesMatchPaperLabels) {
  EXPECT_EQ(strategies::PsuOptRandom().Name(), "p_su-opt + RANDOM");
  EXPECT_EQ(strategies::PsuNoIOLUM().Name(), "p_su-noIO + LUM");
  EXPECT_EQ(strategies::PmuCpuLUM().Name(), "p_mu-cpu + LUM");
  EXPECT_EQ(strategies::MinIO().Name(), "MIN-IO");
  EXPECT_EQ(strategies::MinIOSuOpt().Name(), "MIN-IO-SUOPT");
  EXPECT_EQ(strategies::OptIOCpu().Name(), "OPT-IO-CPU");
}

}  // namespace
}  // namespace pdblb
