#include "sim/mem_profiler.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metaop/metaop.h"

namespace alchemist::sim {

namespace {
constexpr std::size_t kOperands = metaop::kNumOperandClasses;
constexpr std::size_t kClasses = metaop::kNumOpClasses;
}  // namespace

void MemProfiler::profile(const Schedule& s, obs::MemoryProfile& out,
                          obs::Timeline* timeline) {
  out.clear();
  out.active = true;
  out.total_cycles = s.end_cycles;
  out.scratch_capacity_bytes = static_cast<std::uint64_t>(s.cfg.total_sram_kb()) * 1024;
  if (timeline) {
    timeline->set_track_name(kMemBwTid, "mem/bw");
    timeline->set_track_name(kMemScratchTid, "mem/scratchpad");
  }

  struct Ledger {
    std::uint8_t operand = 0;  // metaop::OperandClass
    std::uint64_t fetches = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t refetch_bytes = 0;
  };
  // One fetched working set: streamed over [fetch_start, fetch_end), resident
  // until `release`.
  struct Interval {
    double fetch_start = 0;
    double fetch_end = 0;
    double release = 0;
    std::uint64_t bytes = 0;
  };
  std::array<std::array<std::uint64_t, kClasses>, kOperands> bytes{};
  std::unordered_map<std::uint64_t, Ledger> keys;  // ordered into `out`
  std::vector<Interval> intervals;
  for (const ScheduledOp& r : s.ops) {
    if (r.fetch_end == r.fetch_start) continue;  // nothing streamed
    const metaop::HighOp& op = s.graph->ops[r.op];
    const auto cls = static_cast<std::size_t>(metaop::class_of(op.kind));
    // Attribute descriptor bytes; the sum is clamped to hbm_bytes so the
    // conservation invariant survives a buggy lowering, and any shortfall is
    // unattributed ciphertext-limb traffic.
    std::uint64_t attributed = 0;
    for (const metaop::TransferDesc& t : op.transfers) {
      std::uint64_t b = std::min(t.bytes, op.hbm_bytes - attributed);
      if (b == 0) continue;
      bytes[static_cast<std::size_t>(t.operand_class)][cls] += b;
      attributed += b;
      if (t.key_id != 0) {
        Ledger& entry = keys[t.key_id];
        entry.operand = static_cast<std::uint8_t>(t.operand_class);
        entry.fetches += 1;
        entry.total_bytes += b;
        if (entry.fetches > 1) entry.refetch_bytes += b;
      }
    }
    if (attributed < op.hbm_bytes) {
      bytes[static_cast<std::size_t>(metaop::OperandClass::CtLimb)][cls] +=
          op.hbm_bytes - attributed;
    }
    out.total_bytes += op.hbm_bytes;
    intervals.push_back(Interval{r.fetch_start, r.fetch_end,
                                  std::max(r.compute_end, r.fetch_end),
                                  op.hbm_bytes});
  }
  out.evictions = intervals.size();  // each working set is evicted once

  for (std::size_t o = 0; o < kOperands; ++o) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (bytes[o][c] == 0) continue;
      out.attributed[metaop::operand_tag(
          static_cast<metaop::OperandClass>(o))]
                    [metaop::class_tag(static_cast<metaop::OpClass>(c))] +=
          bytes[o][c];
    }
  }
  for (const auto& [id, entry] : keys) {
    obs::KeyFetches& kf = out.keys[id];
    kf.operand = metaop::operand_tag(static_cast<metaop::OperandClass>(entry.operand));
    kf.fetches = entry.fetches;
    kf.total_bytes = entry.total_bytes;
    kf.refetch_bytes = entry.refetch_bytes;
  }

  // Fetches stream back to back in schedule order, so the fetch intervals
  // are disjoint and sorted; only the releases need sorting. Every sweep below
  // is then a merge of the two sorted endpoint sequences.
  std::vector<std::pair<double, std::uint64_t>> releases;  // (cycle, bytes)
  releases.reserve(intervals.size());
  for (const Interval& iv : intervals) releases.emplace_back(iv.release, iv.bytes);
  std::sort(releases.begin(), releases.end());

  // Exact residency high-water mark, releases before fetches at equal
  // timestamps (a set leaving makes room for the next in the same cycle).
  std::int64_t resident = 0, peak = 0;
  std::size_t r = 0;
  for (const Interval& iv : intervals) {
    for (; r < releases.size() && releases[r].first <= iv.fetch_start; ++r) {
      resident -= static_cast<std::int64_t>(releases[r].second);
    }
    resident += static_cast<std::int64_t>(iv.bytes);
    peak = std::max(peak, resident);
  }
  out.scratch_peak_bytes = static_cast<std::uint64_t>(peak);

  // Epoch timelines over [0, end_cycles). Epoch starts increase, so one
  // cursor per endpoint sequence walks each sequence once.
  if (s.end_cycles > 0) {
    const double epoch_len = static_cast<double>(s.end_cycles) / kEpochs;
    out.bw_util.assign(kEpochs, 0.0);
    out.occupancy_bytes.assign(kEpochs, 0);
    std::size_t first = 0;    // first fetch still streaming at the epoch start
    std::size_t fetched = 0;  // fetches started by the epoch start
    std::size_t released = 0;
    std::uint64_t fetched_bytes = 0, released_bytes = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const double lo = e * epoch_len;
      const double hi = lo + epoch_len;
      while (first < intervals.size() && intervals[first].fetch_end <= lo) ++first;
      double busy = 0;
      for (std::size_t i = first; i < intervals.size() && intervals[i].fetch_start < hi;
           ++i) {
        busy += std::max(0.0, std::min(intervals[i].fetch_end, hi) -
                                  std::max(intervals[i].fetch_start, lo));
      }
      for (; fetched < intervals.size() && intervals[fetched].fetch_start <= lo;
           ++fetched) {
        fetched_bytes += intervals[fetched].bytes;
      }
      // A set released by lo was fetched by lo (release >= fetch end).
      for (; released < releases.size() && releases[released].first <= lo; ++released) {
        released_bytes += releases[released].second;
      }
      out.bw_util[e] = std::min(1.0, busy / epoch_len);
      out.occupancy_bytes[e] = fetched_bytes - released_bytes;
    }
    if (timeline) {
      for (std::size_t e = 0; e < kEpochs; ++e) {
        timeline->record_counter({.name = "mem/bw", .tid = kMemBwTid, .ts = e * epoch_len,
                                  .series = {{"bw_pct", 100.0 * out.bw_util[e]}}});
        timeline->record_counter(
            {.name = "mem/scratchpad", .tid = kMemScratchTid, .ts = e * epoch_len,
             .series = {{"resident_bytes", static_cast<double>(out.occupancy_bytes[e])}}});
      }
    }
  }
}

}  // namespace alchemist::sim
