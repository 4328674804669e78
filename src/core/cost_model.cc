// Copyright 2026 the pdblb authors. MIT license.

#include "core/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pdblb {

namespace {

/// Coordinator-serial overhead per join processor, in instructions: subquery
/// startup message plus its share of termination processing.  Calibrated so
/// that the integer argmin of R(p) reproduces the paper's published anchor
/// p_su-opt = 30 at 1% scan selectivity (and 10 at 0.1%, ~70 at 5%), as
/// CostModelTest.PsuOptPaperAnchors (tests/core_test.cc) pins.
constexpr int64_t kCoordinatorPerPeInstr = 15500;

}  // namespace

int64_t HashTablePages(int64_t pages, double fudge_factor) {
  return static_cast<int64_t>(
      std::ceil(fudge_factor * static_cast<double>(pages)));
}

int PsuNoIO(int64_t hash_table_pages, int64_t buffer_pages, int num_pes) {
  int64_t p = (hash_table_pages + buffer_pages - 1) / buffer_pages;
  return static_cast<int>(std::clamp<int64_t>(p, 1, num_pes));
}

int PmuCpu(int psu_opt, double u, int num_pes) {
  u = std::clamp(u, 0.0, 1.0);
  int p = static_cast<int>(std::lround(psu_opt * (1.0 - u * u * u)));
  return std::clamp(p, 1, num_pes);
}

CostModel::CostModel(const SystemConfig& config) : config_(config) {
  profile_.inner_tuples = config.InnerInputTuples();
  profile_.outer_tuples = config.OuterInputTuples();
  profile_.result_tuples = static_cast<int64_t>(std::llround(
      config.join_query.result_size_factor *
      static_cast<double>(profile_.inner_tuples)));
  profile_.inner_pages = config.InnerInputPages();
  profile_.outer_pages = config.OuterInputPages();
  profile_.tuple_size_bytes = config.relation_a.tuple_size_bytes;
  profile_.fudge_factor = config.join_query.fudge_factor;
  packet_bytes_ = config.network.packet_size_bytes;
  mips_ = config.mips_per_pe;
}

int64_t CostModel::HashTablePages() const {
  return pdblb::HashTablePages(profile_.inner_pages, profile_.fudge_factor);
}

int CostModel::PsuNoIO() const {
  return pdblb::PsuNoIO(HashTablePages(), config_.buffer.buffer_pages,
                        config_.num_pes);
}

double CostModel::CoordinatorFixedMs() const {
  const CpuCosts& c = config_.costs;
  // BOT + EOT plus one startup message to every scan processor.
  int64_t instr = c.initiate_txn + c.terminate_txn +
                  static_cast<int64_t>(config_.num_pes) *
                      (c.send_message + c.copy_message);
  return InstructionsToMs(instr, mips_);
}

double CostModel::CoordinatorPerPeMs() const {
  return InstructionsToMs(kCoordinatorPerPeInstr, mips_);
}

double CostModel::ScanPhaseMs(bool inner) const {
  const CpuCosts& c = config_.costs;
  int nodes = inner ? config_.NumANodes() : config_.NumBNodes();
  int64_t pages = inner ? profile_.inner_pages : profile_.outer_pages;
  int64_t tuples = inner ? profile_.inner_tuples : profile_.outer_tuples;

  int64_t pages_node = (pages + nodes - 1) / nodes;
  int64_t tuples_node = (tuples + nodes - 1) / nodes;
  int64_t bytes_node = tuples_node * profile_.tuple_size_bytes;
  int64_t packets_node = (bytes_node + packet_bytes_ - 1) / packet_bytes_;

  // Effective sequential page read time with prefetching.
  const DiskConfig& d = config_.disk;
  double page_io_ms = (d.avg_access_time_ms +
                       d.prefetch_delay_per_page_ms * d.prefetch_pages) /
                          d.prefetch_pages +
                      d.controller_time_per_page_ms +
                      d.transmission_time_per_page_ms;
  double io_ms = static_cast<double>(pages_node) * page_io_ms;

  int64_t cpu_instr =
      tuples_node * (c.read_tuple + c.hash_tuple + c.write_output_tuple) +
      packets_node * (c.send_message + c.copy_message) +
      pages_node * c.io_overhead;
  double cpu_ms = InstructionsToMs(cpu_instr, mips_);

  // I/O and CPU overlap within a scan node.
  return std::max(io_ms, cpu_ms);
}

double CostModel::JoinWorkMs() const {
  const CpuCosts& c = config_.costs;
  auto packets = [&](int64_t tuples) {
    int64_t bytes = tuples * profile_.tuple_size_bytes;
    return (bytes + packet_bytes_ - 1) / packet_bytes_;
  };
  int64_t instr = 0;
  // Building phase: receive the inner input, hash and insert.
  instr += packets(profile_.inner_tuples) * (c.receive_message + c.copy_message);
  instr += profile_.inner_tuples * (c.hash_tuple + c.insert_hash_table);
  // Probing phase: receive the outer input, probe, emit results.
  instr += packets(profile_.outer_tuples) * (c.receive_message + c.copy_message);
  instr += profile_.outer_tuples * c.probe_hash_table;
  instr += profile_.result_tuples * c.write_output_tuple;
  instr += packets(profile_.result_tuples) * (c.send_message + c.copy_message);
  return InstructionsToMs(instr, mips_);
}

double CostModel::TempIoMs(int p) const {
  // Aggregate memory of p join processors vs. the hash-table requirement.
  double need = static_cast<double>(HashTablePages());
  double have = static_cast<double>(p) *
                static_cast<double>(config_.buffer.buffer_pages);
  if (have >= need) return 0.0;
  double spilled_fraction = 1.0 - have / need;
  // Spilled fractions of both inputs are written to and re-read from
  // temporary files, spread over p processors.
  double temp_pages = spilled_fraction *
                      static_cast<double>(profile_.inner_pages +
                                          profile_.outer_pages) *
                      2.0 / static_cast<double>(p);
  const DiskConfig& d = config_.disk;
  double page_io_ms = (d.avg_access_time_ms +
                       d.prefetch_delay_per_page_ms * d.prefetch_pages) /
                          d.prefetch_pages +
                      d.controller_time_per_page_ms +
                      d.transmission_time_per_page_ms;
  return temp_pages * page_io_ms;
}

double CostModel::ResponseTimeMs(int p) const {
  assert(p >= 1);
  return CoordinatorFixedMs() + CoordinatorPerPeMs() * p + ScanPhaseMs(true) +
         ScanPhaseMs(false) + JoinWorkMs() / p + TempIoMs(p);
}

double CostModel::ScanProductionRateTps() const {
  double total_tuples = static_cast<double>(profile_.inner_tuples +
                                            profile_.outer_tuples);
  double phase_ms = ScanPhaseMs(true) + ScanPhaseMs(false);
  if (phase_ms <= 0.0) return 0.0;
  return total_tuples / phase_ms * 1000.0;
}

double CostModel::JoinConsumptionRateTps() const {
  double total_tuples = static_cast<double>(profile_.inner_tuples +
                                            profile_.outer_tuples);
  double work_ms = JoinWorkMs();
  if (work_ms <= 0.0) return 0.0;
  return total_tuples / work_ms * 1000.0;
}

int CostModel::PsuOpt() const {
  int best = 1;
  double best_rt = ResponseTimeMs(1);
  for (int p = 2; p <= config_.num_pes; ++p) {
    double rt = ResponseTimeMs(p);
    if (rt < best_rt) {
      best_rt = rt;
      best = p;
    }
  }
  return best;
}

}  // namespace pdblb
