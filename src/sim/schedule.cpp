#include "sim/schedule.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/mem_profiler.h"
#include "sim/result.h"
#include "sim/unit_profiler.h"

namespace alchemist::sim {

namespace {

using metaop::class_tag;
using metaop::HighOp;

// "NTT#12": an op's slice label.
std::string op_label(const HighOp& op, std::size_t idx) {
  return std::string(metaop::to_string(op.kind)) + "#" + std::to_string(idx);
}

// Writes one schedule's slices. Perfetto renders properly-nested slices only,
// so each operator class gets a family of rows, filled first-fit.
class Emitter {
 public:
  Emitter(const Schedule& s, obs::Timeline& tl) : s_(s), tl_(tl) {
    tl.set_process_name(s.event ? "alchemist-sim(event)" : "alchemist-sim(level)");
    tl.set_track_name(kHbmTid, "hbm");
    tl.set_track_name(kTransposeTid, "transpose");
    tl.set_track_name(kSchedulerTid, "scheduler");
    tl.set_track_name(kFaultTid, "fault");
  }

  // The op's slice, on a row of its class that is free over [start, end).
  void op(const ScheduledOp& r, metaop::OpClass cls, double end, double dur,
          std::vector<std::pair<std::string, double>> args) {
    tl_.record({.name = op_label(s_.graph->ops[r.op], r.op), .cat = class_tag(cls),
                .tid = reserve(cls, r.start, end), .ts = r.start, .dur = dur,
                .num_args = std::move(args)});
  }
  // The op's injected transients and the core-cycles their mitigation
  // re-executed.
  void fault(const ScheduledOp& r, const OpCost& c, double dur) {
    const fault::OpFaults& f = c.faults;
    tl_.record({.name = "fault " + op_label(s_.graph->ops[r.op], r.op), .cat = "fault",
                .tid = kFaultTid, .ts = r.start, .dur = dur,
                .num_args = {{"faults_compute", static_cast<double>(f.compute)},
                             {"faults_sram", static_cast<double>(f.sram)},
                             {"faults_hbm", static_cast<double>(f.hbm)},
                             {"retry_core_cycles", static_cast<double>(c.retry_cycles)}}});
  }

 private:
  std::uint32_t reserve(metaop::OpClass cls, double start, double end) {
    std::vector<double>& ends = row_end_[static_cast<std::size_t>(cls)];
    std::size_t row = 0;
    while (row < ends.size() && ends[row] > start + 1e-9) ++row;
    const std::uint32_t base = static_cast<std::uint32_t>(cls) * kRowsPerClass;
    if (row == ends.size()) {
      if (ends.size() < kRowsPerClass) {
        ends.push_back(0);
        tl_.set_track_name(base + static_cast<std::uint32_t>(row),
                           std::string(class_tag(cls)) + "/" + std::to_string(row));
      } else {
        row = kRowsPerClass - 1;  // saturate: stack on the last row
      }
    }
    ends[row] = std::max(ends[row], end);
    return base + static_cast<std::uint32_t>(row);
  }

  const Schedule& s_;
  obs::Timeline& tl_;
  std::array<std::vector<double>, metaop::kNumOpClasses> row_end_;
};

// The pooled level model tiles each level with its ops back to back at full
// machine width.
void emit_levels(const Schedule& s, obs::Timeline& tl, Emitter& out) {
  const double cores = static_cast<double>(s.cfg.total_cores());
  const double transpose_words_per_cycle =
      static_cast<double>(s.cfg.num_units * s.cfg.lanes);
  std::size_t end = 0;
  for (std::size_t level = 0; level < s.levels.size(); ++level) {
    const LevelFrame& frame = s.levels[level];
    const std::size_t first = end;
    end += frame.ops;
    if (level < s.first_step) continue;
    double hbm_bytes = 0;
    for (std::size_t k = first; k < end; ++k) {
      const ScheduledOp& r = s.ops[k];
      const OpCost& c = s.costs[k];
      const double op_bytes = static_cast<double>(s.graph->ops[r.op].hbm_bytes);
      const double transpose = std::ceil(c.transpose);
      hbm_bytes += op_bytes;
      out.op(r, c.cls, r.compute_end, static_cast<double>(c.work()) / cores + transpose,
             {{"level", static_cast<double>(level)},
              {"core_cycles", static_cast<double>(c.core_cycles)},
              {"cores", cores},
              {"metaop_batches", static_cast<double>(c.batches)},
              {"meta_ops", static_cast<double>(c.meta_ops)},
              {"hbm_bytes", op_bytes},
              {"transpose_cycles", transpose},
              {"mults", static_cast<double>(c.mults)}});
      if (transpose > 0) {
        tl.record({.name = "transpose#" + std::to_string(r.op), .cat = "transpose",
                   .tid = kTransposeTid,
                   .ts = r.start + static_cast<double>(c.core_cycles) / cores,
                   .dur = transpose,
                   .num_args = {{"words_per_cycle", transpose_words_per_cycle}}});
      }
      if (c.faults.total() > 0) out.fault(r, c, static_cast<double>(c.retry_cycles) / cores);
    }
    tl.record({.name = "level " + std::to_string(level), .cat = "scheduler",
               .tid = kSchedulerTid, .ts = static_cast<double>(frame.start),
               .dur = static_cast<double>(frame.wall),
               .num_args = {{"ops", static_cast<double>(frame.ops)},
                            {"core_cycles", static_cast<double>(frame.core_cycles)},
                            {"hbm_bytes", hbm_bytes}}});
  }
  if (!s.complete) return;

  // Key material streams globally, double-buffered against compute; only
  // its excess over compute stalls.
  std::uint64_t total_hbm_bytes = 0;
  for (const HighOp& op : s.graph->ops) total_hbm_bytes += op.hbm_bytes;
  if (total_hbm_bytes > 0) {
    tl.record({.name = "evk stream", .cat = "hbm", .tid = kHbmTid, .ts = 0,
               .dur = std::ceil(static_cast<double>(total_hbm_bytes) /
                                s.cfg.hbm_bytes_per_cycle()),
               .num_args = {{"bytes", static_cast<double>(total_hbm_bytes)},
                            {"bytes_per_cycle", s.cfg.hbm_bytes_per_cycle()}}});
  }
  if (s.stall_cycles > 0) {
    tl.record({.name = "hbm stall", .cat = "stall", .tid = kSchedulerTid,
               .ts = static_cast<double>(s.end_cycles - s.stall_cycles),
               .dur = static_cast<double>(s.stall_cycles),
               .num_args = {{"cycles", static_cast<double>(s.stall_cycles)}}});
  }
}

// Per-op key streaming, in prefetch order, for the ops this leg retired (so
// a stopped trace and its resumed trace slice each op's keys once); then
// each op from ready to retirement in the order the ops retired.
void emit_events(const Schedule& s, obs::Timeline& tl, Emitter& out) {
  for (const ScheduledOp& r : s.ops) {
    const HighOp& op = s.graph->ops[r.op];
    if (op.hbm_bytes == 0 || r.retire == 0 || r.step < s.first_step) continue;
    tl.record({.name = "keys " + op_label(op, r.op), .cat = "hbm", .tid = kHbmTid,
               .ts = r.fetch_start, .dur = r.fetch_end - r.fetch_start,
               .num_args = {{"bytes", static_cast<double>(op.hbm_bytes)},
                            {"bytes_per_cycle", s.cfg.hbm_bytes_per_cycle()}}});
  }
  for (std::size_t k : s.retired) {
    const ScheduledOp& r = s.ops[k];
    const OpCost& c = s.costs[k];
    if (r.step < s.first_step) continue;
    out.op(r, c.cls, r.retire, r.retire - r.start,
           {{"ready_cycle", r.start},
            {"end_cycle", r.retire},
            {"hbm_ready_cycle", r.fetch_end},
            {"hbm_wait_cycles", std::max(0.0, r.retire - std::max(r.compute_end, r.start))},
            {"hbm_bytes", static_cast<double>(s.graph->ops[r.op].hbm_bytes)}});
    if (c.faults.total() > 0) out.fault(r, c, r.retire - r.start);
  }
}

void emit_timeline(const Schedule& s, obs::Timeline& tl) {
  Emitter out(s, tl);
  if (s.event) {
    emit_events(s, tl, out);
  } else {
    emit_levels(s, tl, out);
  }
}

}  // namespace

void observe(const Schedule& s, obs::Timeline* timeline, UnitProfiler* unit,
             MemProfiler* mem, SimResult& result) {
  if (timeline) emit_timeline(s, *timeline);
  if (!s.complete) return;
  if (unit) UnitProfiler::profile(s, result.profile, timeline);
  if (mem) MemProfiler::profile(s, result.mem_profile, timeline);
}

}  // namespace alchemist::sim
