// Copyright 2026 the pdblb authors. MIT license.
//
// Analytic single-user response-time model for the parallel hash join
// (paper Section 2, following Wilschut et al. [34] and Marek [17]): an
// explicit R(p) whose integer argmin yields p_su-opt.  The closed-form
// planning formulas are free functions, the one body the model, the planner
// (core/strategies.h) and the join executor call: the hash-table size
// ceil(b * F), p_su-noIO (formula 3.1) and the CPU-adaptive p_mu-cpu
// (formula 3.2).
//
// The paper's own cost model [17] is not available; this reimplementation
// is calibrated so that the published anchors hold with the paper's
// parameter table:  p_su-opt = 10 / 30 / ~70 and p_su-noIO = 1 / 3 / 14 at
// scan selectivities 0.1% / 1% / 5% (see CostModelTest in
// tests/core_test.cc).

#ifndef PDBLB_CORE_COST_MODEL_H_
#define PDBLB_CORE_COST_MODEL_H_

#include "common/config.h"

namespace pdblb {

/// Hash-table pages of an inner input of `pages` pages: ceil(b * F).
int64_t HashTablePages(int64_t pages, double fudge_factor);

/// p_su-noIO (formula 3.1): MIN(n, ceil(hash_table_pages / m)), at least 1,
/// with m the buffer pages of one PE.
int PsuNoIO(int64_t hash_table_pages, int64_t buffer_pages, int num_pes);

/// p_mu-cpu (formula 3.2): p_su-opt * (1 - u_cpu^3), rounded, in [1, n].
int PmuCpu(int psu_opt, double cpu_utilization, int num_pes);

/// Cost-model view of one join query class.
struct JoinQueryProfile {
  int64_t inner_tuples = 0;   ///< Scan output of A (the smaller input).
  int64_t outer_tuples = 0;   ///< Scan output of B.
  int64_t result_tuples = 0;
  int64_t inner_pages = 0;    ///< Pages of the inner scan output.
  int64_t outer_pages = 0;
  int tuple_size_bytes = 400;
  double fudge_factor = 1.05;
};

/// Analytic model over a SystemConfig.
class CostModel {
 public:
  explicit CostModel(const SystemConfig& config);

  /// Single-user response time estimate [ms] with p join processors.
  double ResponseTimeMs(int p) const;

  /// p_su-opt: integer argmin of ResponseTimeMs over [1, n].
  int PsuOpt() const;

  /// p_su-noIO (formula 3.1): MIN(n, ceil(b_i * F / m)).
  int PsuNoIO() const;

  /// Hash-table pages needed for the whole inner input: ceil(b_i * F).
  int64_t HashTablePages() const;

  // --- RateMatch inputs (Mehta & DeWitt [20], paper Section 6) -------------

  /// Aggregate rate [tuples/s] at which the scan processors produce the join
  /// input in an unloaded system (both phases combined).
  double ScanProductionRateTps() const;

  /// Rate [tuples/s] at which one unloaded join processor consumes its input
  /// (receive + hash/insert/probe work, amortized over both phases).
  double JoinConsumptionRateTps() const;

 private:
  // Decomposed response-time terms [ms]; exposed to tests via ResponseTimeMs.
  double CoordinatorFixedMs() const;
  double CoordinatorPerPeMs() const;
  double ScanPhaseMs(bool inner) const;
  double JoinWorkMs() const;
  double TempIoMs(int p) const;

  SystemConfig config_;
  JoinQueryProfile profile_;
  int64_t packet_bytes_;
  double mips_;
};

}  // namespace pdblb

#endif  // PDBLB_CORE_COST_MODEL_H_
