// Copyright 2026 the pdblb authors. MIT license.

#include "engine/parop.h"

#include <algorithm>

#include "core/skew.h"

namespace pdblb::parop {

std::vector<int64_t> SplitEvenly(int64_t total, int parts) {
  std::vector<int64_t> out(parts, total / parts);
  int64_t rem = total % parts;
  for (int64_t i = 0; i < rem; ++i) ++out[static_cast<size_t>(i)];
  return out;
}

std::vector<PeId> FragmentOwners(const Cluster& c, const Relation& rel,
                                 const std::vector<PeId>& homes) {
  std::vector<PeId> owners(homes);
  if (c.elastic_enabled()) {
    for (PeId& pe : owners) pe = c.OwnerOf(rel.id(), pe);
  }
  return owners;
}

sim::Task<> SendBatch(Cluster& c, PeId src, PeId dst, int64_t tuples,
                      int tuple_size, BatchChannel* channel) {
  return c.net().Transfer(src, dst, tuples * tuple_size,
                          [channel, tuples] { channel->Send(Batch{tuples}); });
}

sim::Task<> DeliverControl(Cluster& c, PeId dest) {
  co_await c.sched().Delay(c.config().network.wire_time_per_packet_ms);
  const CpuCosts& costs = c.config().costs;
  co_await UseCpu(c, dest, costs.receive_message + costs.copy_message);
}

sim::Task<> CommitRound(Cluster& c, PeId coord, PeId dest) {
  const CpuCosts& costs = c.config().costs;
  double wire = c.config().network.wire_time_per_packet_ms;
  co_await c.sched().Delay(wire);
  co_await UseCpu(c, dest, costs.receive_message + costs.copy_message);
  co_await UseCpu(c, dest, costs.send_message + costs.copy_message);
  co_await c.sched().Delay(wire);
  co_await UseCpu(c, coord, costs.receive_message + costs.copy_message);
}

sim::Task<> TwoPhaseCommitRounds(Cluster& c, PeId coord, PeId dest) {
  const CpuCosts& costs = c.config().costs;
  double wire = c.config().network.wire_time_per_packet_ms;
  // Phase 1: prepare.  The participant forces its log before voting.
  co_await c.sched().Delay(wire);
  co_await UseCpu(c, dest, costs.receive_message + costs.copy_message);
  co_await c.pe(dest).disks().LogWrite();
  co_await UseCpu(c, dest, costs.send_message + costs.copy_message);
  co_await c.sched().Delay(wire);
  co_await UseCpu(c, coord, costs.receive_message + costs.copy_message);
  // Phase 2: commit.
  co_await UseCpu(c, coord, costs.send_message + costs.copy_message);
  co_await CommitRound(c, coord, dest);
}

sim::Task<> LockPageShared(Cluster& c, PeId node, TxnId txn, PageKey page) {
  LockManager& locks = c.pe(node).locks();
  while (!co_await locks.Lock(txn, LockKey{page.relation_id, page.page_no},
                              LockMode::kShared)) {
    locks.ReleaseAll(txn);
    co_await c.sched().Delay(10.0);
  }
}

sim::Task<> ScanRedistribute(
    Cluster& c, PeId node, const Relation& rel, int64_t sel_tuples,
    const std::vector<PeId>& dests, const std::vector<double>& dest_frac,
    const std::vector<std::unique_ptr<BatchChannel>>& channels,
    sim::TaskGroup& sends, TxnId read_lock_txn, PeId fragment_owner) {
  if (sel_tuples <= 0) co_return;
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  ProcessingElement& pe = c.pe(node);
  const PeId owner = fragment_owner < 0 ? node : fragment_owner;

  const int bf = rel.blocking_factor();
  const int tuple_size = rel.config().tuple_size_bytes;
  const int64_t frag_pages = rel.PagesAt(owner);
  const int64_t pages =
      std::min<int64_t>(frag_pages, (sel_tuples + bf - 1) / bf);
  const int64_t start =
      c.workload_rng().UniformInt(0, std::max<int64_t>(0, frag_pages - 1));

  // Clustered B+-tree descent to the start of the selected range.
  co_await UseCpu(c, node, costs.read_tuple * rel.IndexLevels(owner));

  const int p = static_cast<int>(dests.size());
  const int64_t packet_tuples =
      std::max<int64_t>(1, cfg.network.packet_size_bytes / tuple_size);

  std::vector<int64_t> per_dest = SplitWeighted(sel_tuples, dest_frac);
  std::vector<double> accum(p, 0.0);
  std::vector<int64_t> sent(p, 0);

  // Pages are processed in striped groups: one group's I/O is spread across
  // the whole disk array (horizontal declustering over disks), then CPU is
  // charged per prefetch chunk while packets stream out.
  const int64_t group_pages =
      static_cast<int64_t>(cfg.disk.prefetch_pages) * cfg.disk.disks_per_pe;
  int64_t remaining = sel_tuples;
  int64_t processed = 0;
  while (processed < pages && remaining > 0) {
    int64_t pos = (start + processed) % frag_pages;
    int64_t len = std::min({group_pages, pages - processed, frag_pages - pos});
    if (read_lock_txn != 0) {
      for (int64_t i = 0; i < len; ++i) {
        co_await LockPageShared(c, owner, read_lock_txn,
                                rel.DataPage(owner, pos + i));
      }
    }
    co_await pe.buffer().FetchRange(rel.DataPage(owner, pos), len);
    processed += len;

    for (int64_t chunk = 0; chunk < len && remaining > 0;
         chunk += cfg.disk.prefetch_pages) {
      int64_t chunk_pages =
          std::min<int64_t>(cfg.disk.prefetch_pages, len - chunk);
      int64_t in_chunk = std::min<int64_t>(chunk_pages * bf, remaining);
      remaining -= in_chunk;
      co_await UseCpu(c, node,
                      in_chunk * (costs.read_tuple + costs.hash_tuple +
                                  costs.write_output_tuple));
      // Hash partitioning: every destination accumulates its partition
      // fraction; full packets are shipped as soon as they fill.
      for (int j = 0; j < p; ++j) {
        accum[j] += static_cast<double>(in_chunk) * dest_frac[j];
        while (accum[j] >= static_cast<double>(packet_tuples) &&
               sent[j] + packet_tuples <= per_dest[j]) {
          accum[j] -= static_cast<double>(packet_tuples);
          sent[j] += packet_tuples;
          sends.Spawn(SendBatch(c, node, dests[j], packet_tuples, tuple_size,
                                channels[j].get()));
        }
      }
    }
  }
  // Final partial packet per (scan node, destination) pair: this is the
  // redistribution overhead that grows with the number of nodes.
  for (int j = 0; j < p; ++j) {
    int64_t rest = per_dest[j] - sent[j];
    if (rest > 0) {
      sends.Spawn(
          SendBatch(c, node, dests[j], rest, tuple_size, channels[j].get()));
    }
  }
}

sim::Task<> Redistribute(
    Cluster& c, PeId src, int64_t tuples, int tuple_size,
    const std::vector<PeId>& dests, const std::vector<double>& dest_frac,
    const std::vector<std::unique_ptr<BatchChannel>>& channels,
    sim::TaskGroup& sends) {
  if (tuples <= 0) co_return;
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  const int p = static_cast<int>(dests.size());
  const int64_t packet_tuples =
      std::max<int64_t>(1, cfg.network.packet_size_bytes / tuple_size);

  // Partitioning CPU: hash + output-buffer write per tuple.
  co_await UseCpu(
      c, src, tuples * (costs.hash_tuple + costs.write_output_tuple));

  std::vector<int64_t> per_dest = SplitWeighted(tuples, dest_frac);
  for (int j = 0; j < p; ++j) {
    int64_t left = per_dest[j];
    while (left > 0) {
      int64_t batch = std::min(packet_tuples, left);
      left -= batch;
      sends.Spawn(
          SendBatch(c, src, dests[j], batch, tuple_size, channels[j].get()));
    }
  }
}

}  // namespace pdblb::parop
