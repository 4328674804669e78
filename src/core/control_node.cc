// Copyright 2026 the pdblb authors. MIT license.

#include "core/control_node.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pdblb {

namespace {

/// Adaptive feedback: the fraction of its remaining CPU headroom added to
/// a selected PE's recorded utilization.
constexpr double kCpuBumpFactor = 0.25;

/// `infos` (in PE id order) stably sorted by ascending `key(info)`, so PEs
/// with equal keys stay in id order.
template <typename Key>
std::vector<PeLoadInfo> SortedBy(std::vector<PeLoadInfo> infos, Key key) {
  std::stable_sort(infos.begin(), infos.end(),
                   [&key](const PeLoadInfo& a, const PeLoadInfo& b) {
                     return key(a) < key(b);
                   });
  return infos;
}

}  // namespace

ControlNode::ControlNode(int num_pes, bool adaptive_feedback)
    : adaptive_feedback_(adaptive_feedback) {
  info_.resize(num_pes);
  for (int i = 0; i < num_pes; ++i) info_[i].pe = i;
  alive_.assign(static_cast<size_t>(num_pes), true);
}

void ControlNode::MarkDown(PeId pe) {
  assert(pe >= 0 && pe < static_cast<int>(info_.size()));
  if (!alive_[static_cast<size_t>(pe)]) return;
  alive_[static_cast<size_t>(pe)] = false;
  ++down_count_;
}

void ControlNode::MarkUp(PeId pe) {
  assert(pe >= 0 && pe < static_cast<int>(info_.size()));
  if (alive_[static_cast<size_t>(pe)]) return;
  alive_[static_cast<size_t>(pe)] = true;
  --down_count_;
}

void ControlNode::Report(PeId pe, double cpu_util, int free_memory_pages,
                         double disk_util) {
  assert(pe >= 0 && pe < static_cast<int>(info_.size()));
  info_[pe].cpu_util = std::clamp(cpu_util, 0.0, 1.0);
  info_[pe].free_memory_pages = std::max(0, free_memory_pages);
  info_[pe].disk_util = std::clamp(disk_util, 0.0, 1.0);
}

void ControlNode::NoteLoadRound(double avg_admission_queue) {
  if (!overload_.enabled) return;
  // Average alive-PE CPU utilization that enters degraded mode, and the
  // lower one (hysteresis) below which it may be left.
  constexpr double kDegradeCpuThreshold = 0.90;
  constexpr double kExitCpuThreshold = 0.75;
  const double cpu = AvgCpuUtilization();
  const double queue = avg_admission_queue;
  const bool hot = cpu >= kDegradeCpuThreshold ||
                   queue >= overload_.degrade_queue_threshold;
  const bool shed_hot = queue >= overload_.shed_queue_threshold;
  const bool cool = cpu < kExitCpuThreshold &&
                    queue < overload_.exit_queue_threshold;
  // Escalation and de-escalation both require `enter_rounds` /
  // `exit_rounds` *consecutive* qualifying rounds; any non-qualifying round
  // resets the respective streak (hysteresis on top of the gap between
  // enter and exit thresholds).
  hot_rounds_ = hot ? hot_rounds_ + 1 : 0;
  shed_hot_rounds_ = shed_hot ? shed_hot_rounds_ + 1 : 0;
  switch (overload_state_) {
    case OverloadState::kNormal:
      cool_rounds_ = 0;
      if (hot_rounds_ >= overload_.enter_rounds) {
        overload_state_ = OverloadState::kDegraded;
        hot_rounds_ = 0;
      }
      break;
    case OverloadState::kDegraded:
      if (shed_hot_rounds_ >= overload_.enter_rounds) {
        overload_state_ = OverloadState::kShedding;
        shed_hot_rounds_ = 0;
        cool_rounds_ = 0;
        break;
      }
      cool_rounds_ = cool ? cool_rounds_ + 1 : 0;
      if (cool_rounds_ >= overload_.exit_rounds) {
        overload_state_ = OverloadState::kNormal;
        cool_rounds_ = 0;
      }
      break;
    case OverloadState::kShedding:
      // Leaving shedding only needs the *queue* to drain below the exit
      // threshold: shedding exists to work off the admission backlog, and
      // the CPU legitimately stays busy while it drains.
      cool_rounds_ =
          queue < overload_.exit_queue_threshold ? cool_rounds_ + 1 : 0;
      if (cool_rounds_ >= overload_.exit_rounds) {
        overload_state_ = OverloadState::kDegraded;
        cool_rounds_ = 0;
      }
      break;
  }
}

int ControlNode::DegreeCap(int wanted) const {
  if (overload_state_ == OverloadState::kNormal) return wanted;
  // Share of the alive PEs a degraded plan may use.
  constexpr double kParallelismFactor = 0.5;
  int cap = static_cast<int>(std::ceil(static_cast<double>(AliveCount()) *
                                       kParallelismFactor));
  return std::clamp(cap, 1, wanted);
}

double ControlNode::AliveMean(double PeLoadInfo::*field) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& i : info_) {
    if (!alive_[static_cast<size_t>(i.pe)]) continue;
    sum += i.*field;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double ControlNode::AvgCpuUtilization() const {
  return AliveMean(&PeLoadInfo::cpu_util);
}

double ControlNode::AvgDiskUtilization() const {
  return AliveMean(&PeLoadInfo::disk_util);
}

std::vector<PeLoadInfo> ControlNode::AliveInfos() const {
  if (down_count_ == 0) return info_;
  std::vector<PeLoadInfo> alive;
  alive.reserve(info_.size());
  for (const auto& i : info_) {
    if (alive_[static_cast<size_t>(i.pe)]) alive.push_back(i);
  }
  return alive;
}

std::vector<PeLoadInfo> ControlNode::AvailMemorySorted() const {
  return SortedBy(AliveInfos(),
                  [](const PeLoadInfo& i) { return -i.free_memory_pages; });
}

std::vector<PeLoadInfo> ControlNode::CpuSorted() const {
  return SortedBy(AliveInfos(), [](const PeLoadInfo& i) { return i.cpu_util; });
}

void ControlNode::NoteJoinScheduled(const std::vector<PeId>& pes,
                                    int pages_per_pe) {
  if (!adaptive_feedback_) return;
  for (PeId pe : pes) {
    PeLoadInfo& i = info_[pe];
    i.cpu_util += (1.0 - i.cpu_util) * kCpuBumpFactor;
    i.free_memory_pages = std::max(0, i.free_memory_pages - pages_per_pe);
  }
}

void ControlNode::NoteSubjoinSize(PeId pe, int delta_pages,
                                  double work_multiple) {
  if (!adaptive_feedback_) return;
  PeLoadInfo& i = info_[pe];
  i.free_memory_pages = std::max(0, i.free_memory_pages - delta_pages);
  if (work_multiple > 1.0) {
    double extra = std::min(1.0, kCpuBumpFactor * (work_multiple - 1.0));
    i.cpu_util = std::min(1.0, i.cpu_util + (1.0 - i.cpu_util) * extra);
  }
}

}  // namespace pdblb
