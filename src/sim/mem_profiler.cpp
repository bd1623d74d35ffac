#include "sim/mem_profiler.h"

#include <algorithm>
#include <utility>

#include "metaop/metaop.h"
#include "sim/telemetry.h"

namespace alchemist::sim {

namespace {
constexpr std::size_t kOperands = metaop::kNumOperandClasses;
constexpr std::size_t kClasses = metaop::kNumOpClasses;
}  // namespace

void MemProfiler::begin(const arch::ArchConfig& cfg, obs::Timeline* timeline) {
  active_ = true;
  hbm_bpc_ = cfg.hbm_bytes_per_cycle();
  if (hbm_bpc_ <= 0) hbm_bpc_ = 1.0;
  capacity_bytes_ = static_cast<std::uint64_t>(cfg.total_sram_kb()) * 1024;
  timeline_ = timeline;
  if (timeline_) {
    timeline_->set_track_name(kMemBwTid, "mem/bw");
    timeline_->set_track_name(kMemScratchTid, "mem/scratchpad");
  }
  bytes_prefix_ = 0;
  total_bytes_ = 0;
  for (auto& row : bytes_) row.fill(0);
  keys_.clear();
  intervals_.clear();
}

void MemProfiler::record_fetch(const metaop::HighOp& op, double release_cycle) {
  const auto cls = static_cast<std::size_t>(metaop::class_of(op.kind));
  // Attribute descriptor bytes; the sum is clamped to hbm_bytes so the
  // conservation invariant survives a buggy lowering, and any shortfall is
  // unattributed ciphertext-limb traffic.
  std::uint64_t attributed = 0;
  for (const metaop::TransferDesc& t : op.transfers) {
    std::uint64_t b = std::min(t.bytes, op.hbm_bytes - attributed);
    if (b == 0) continue;
    bytes_[static_cast<std::size_t>(t.operand_class)][cls] += b;
    attributed += b;
    if (t.key_id != 0) {
      Ledger& entry = keys_[t.key_id];
      entry.operand = static_cast<std::uint8_t>(t.operand_class);
      entry.fetches += 1;
      entry.total_bytes += b;
      if (entry.fetches > 1) entry.refetch_bytes += b;
    }
  }
  if (attributed < op.hbm_bytes) {
    bytes_[static_cast<std::size_t>(metaop::OperandClass::CtLimb)][cls] +=
        op.hbm_bytes - attributed;
  }

  // Stream model: the HBM channel services fetches back-to-back in schedule
  // order at full bandwidth; the fetched working set stays resident in the
  // scratchpad until the op retires.
  const double fetch_start = bytes_prefix_ / hbm_bpc_;
  bytes_prefix_ += static_cast<double>(op.hbm_bytes);
  const double fetch_end = bytes_prefix_ / hbm_bpc_;
  total_bytes_ += op.hbm_bytes;
  intervals_.push_back(Interval{fetch_start, fetch_end,
                                std::max(release_cycle, fetch_end),
                                op.hbm_bytes});
}

void MemProfiler::finish(std::uint64_t total_cycles, obs::MemoryProfile& out) {
  if (!active_) return;
  out.clear();
  out.active = true;
  out.total_cycles = total_cycles;
  out.total_bytes = total_bytes_;
  out.scratch_capacity_bytes = capacity_bytes_;
  out.evictions = intervals_.size();  // each working set is evicted once

  for (std::size_t o = 0; o < kOperands; ++o) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (bytes_[o][c] == 0) continue;
      out.attributed[metaop::operand_tag(
          static_cast<metaop::OperandClass>(o))]
                    [metaop::class_tag(static_cast<metaop::OpClass>(c))] +=
          bytes_[o][c];
    }
  }
  for (const auto& [id, entry] : keys_) {
    obs::KeyFetches kf;
    kf.operand =
        metaop::operand_tag(static_cast<metaop::OperandClass>(entry.operand));
    kf.fetches = entry.fetches;
    kf.total_bytes = entry.total_bytes;
    kf.refetch_bytes = entry.refetch_bytes;
    out.keys.emplace(id, std::move(kf));
  }

  // Fetches stream back to back in schedule order, so the fetch intervals
  // are disjoint and sorted; only the releases need sorting. Every sweep below
  // is then a merge of the two sorted endpoint sequences.
  std::vector<std::pair<double, std::uint64_t>> releases;  // (cycle, bytes)
  releases.reserve(intervals_.size());
  for (const Interval& iv : intervals_) releases.emplace_back(iv.release, iv.bytes);
  std::sort(releases.begin(), releases.end());

  // Exact residency high-water mark, releases before fetches at equal
  // timestamps (a set leaving makes room for the next in the same cycle).
  std::int64_t resident = 0, peak = 0;
  std::size_t r = 0;
  for (const Interval& iv : intervals_) {
    for (; r < releases.size() && releases[r].first <= iv.fetch_start; ++r) {
      resident -= static_cast<std::int64_t>(releases[r].second);
    }
    resident += static_cast<std::int64_t>(iv.bytes);
    peak = std::max(peak, resident);
  }
  out.scratch_peak_bytes = static_cast<std::uint64_t>(peak);

  // Epoch timelines over [0, total_cycles). Epoch starts increase, so one
  // cursor per endpoint sequence walks each sequence once.
  if (total_cycles > 0) {
    const double epoch_len = static_cast<double>(total_cycles) / kEpochs;
    out.bw_util.assign(kEpochs, 0.0);
    out.occupancy_bytes.assign(kEpochs, 0);
    std::size_t first = 0;    // first fetch still streaming at the epoch start
    std::size_t fetched = 0;  // fetches started by the epoch start
    std::size_t released = 0;
    std::uint64_t fetched_bytes = 0, released_bytes = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const double lo = e * epoch_len;
      const double hi = lo + epoch_len;
      while (first < intervals_.size() && intervals_[first].fetch_end <= lo) ++first;
      double busy = 0;
      for (std::size_t i = first; i < intervals_.size() && intervals_[i].fetch_start < hi;
           ++i) {
        busy += std::max(0.0, std::min(intervals_[i].fetch_end, hi) -
                                  std::max(intervals_[i].fetch_start, lo));
      }
      for (; fetched < intervals_.size() && intervals_[fetched].fetch_start <= lo;
           ++fetched) {
        fetched_bytes += intervals_[fetched].bytes;
      }
      // A set released by lo was fetched by lo (release >= fetch end).
      for (; released < releases.size() && releases[released].first <= lo; ++released) {
        released_bytes += releases[released].second;
      }
      out.bw_util[e] = std::min(1.0, busy / epoch_len);
      out.occupancy_bytes[e] = fetched_bytes - released_bytes;
    }
    if (timeline_) {
      for (std::size_t e = 0; e < kEpochs; ++e) {
        obs::CounterEvent bw;
        bw.name = "mem/bw";
        bw.tid = kMemBwTid;
        bw.ts = e * epoch_len;
        bw.series.emplace_back("bw_pct", 100.0 * out.bw_util[e]);
        timeline_->record_counter(std::move(bw));
        obs::CounterEvent sp;
        sp.name = "mem/scratchpad";
        sp.tid = kMemScratchTid;
        sp.ts = e * epoch_len;
        sp.series.emplace_back("resident_bytes",
                               static_cast<double>(out.occupancy_bytes[e]));
        timeline_->record_counter(std::move(sp));
      }
    }
  }
}

}  // namespace alchemist::sim
