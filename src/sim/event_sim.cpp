#include "sim/event_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cost_pass.h"
#include "sim/telemetry.h"

namespace alchemist::sim {

namespace {

using metaop::class_tag;
using metaop::HighOp;
using metaop::kNumOpClasses;
using metaop::OpClass;
using metaop::OpGraph;

// Per-op state of the event loop.
struct OpState {
  double work = 0;        // core-cycles of Meta-OP work left (incl. transpose)
  double hbm_ready = 0;   // earliest time this op's prefetched keys land
  double busy_lanes = 0;  // lane-cycles left for utilization accounting
  double frac_scratch = 0;  // transpose share of `work` (profiler only)
  // Static per-op costs the loop reads (see sim/cost_pass.h).
  OpClass cls = OpClass::Elementwise;
  double reduction_share = 0;
  fault::OpFaults faults;
  std::uint64_t retry_cycles = 0;
  std::size_t unmet_deps = 0;
  std::vector<std::size_t> dependents;
  // Telemetry and memory-profiler timestamps (never read by the accounting).
  double start_time = 0;
  double compute_done_time = 0;
};

}  // namespace

SimResult simulate_alchemist_events(const OpGraph& graph,
                                    const arch::ArchConfig& config,
                                    obs::Timeline* timeline,
                                    fault::FaultModel* fault_model,
                                    SimControl* control,
                                    UnitProfiler* profiler,
                                    MemProfiler* mem_profiler) {
  SimResult result;
  result.workload = graph.name;
  result.accelerator = "Alchemist(event)";
  obs::Registry& reg = result.registry;
  if (graph.ops.empty()) {
    if (mem_profiler) {
      mem_profiler->begin(config);
      mem_profiler->finish(0, result.mem_profile);
    }
    return result;
  }

  // Inert fault models are dropped so the run stays bit-identical (see
  // simulate_alchemist).
  fault::FaultModel* fault = fault_model && fault_model->enabled() ? fault_model : nullptr;
  const arch::ArchConfig cfg = fault ? fault->degraded(config) : config;

  // A step is one completion interval. A resumed run re-runs the cost pass
  // from the fault seed and replays the completed intervals silently.
  RunControl run(control, kEventEngine, graph, config, fault);
  std::vector<ClassTrackRows> rows = begin_trace(timeline, "alchemist-sim(event)");

  const double cores = static_cast<double>(cfg.total_cores());
  const double hbm_bpc = cfg.hbm_bytes_per_cycle();

  // Costing in graph-index order samples faults in that order.
  CostPass costs(graph, cfg, fault);
  std::uint64_t total_transpose = 0;
  std::vector<OpState> state(graph.ops.size());
  for (std::size_t i = 0; i < graph.ops.size(); ++i) {
    const OpCost c = costs.cost(i);
    OpState& s = state[i];
    s.cls = c.cls;
    s.reduction_share = c.reduction_share;
    s.faults = c.faults;
    s.retry_cycles = c.retry_cycles;
    s.busy_lanes = static_cast<double>(c.busy_lanes);
    s.work = static_cast<double>(c.core_cycles) + static_cast<double>(c.retry_cycles);
    if (c.transpose > 0) {
      // Serialized half of the transpose, expressed as extra machine work.
      const double transpose_work = c.transpose * cores;
      s.work += transpose_work;
      s.frac_scratch = s.work > 0 ? transpose_work / s.work : 0.0;
      total_transpose += static_cast<std::uint64_t>(c.transpose);
    }
    s.unmet_deps = graph.ops[i].deps.size();
    for (std::size_t dep : graph.ops[i].deps) {
      if (dep >= i) throw std::invalid_argument("event sim: deps must point backwards");
      state[dep].dependents.push_back(i);
    }
  }

  // Key prefetching: the scheduler knows the op stream in advance, so HBM
  // streams each op's keys in order starting at t=0; an op can only retire
  // once its cumulative key traffic has landed.
  double bytes_prefix = 0;
  for (std::size_t i = 0; i < graph.ops.size(); ++i) {
    const double start_cycle = bytes_prefix / hbm_bpc;
    bytes_prefix += static_cast<double>(graph.ops[i].hbm_bytes);
    state[i].hbm_ready = bytes_prefix / hbm_bpc;
    if (timeline && graph.ops[i].hbm_bytes > 0) {
      obs::TraceEvent hb;
      hb.name = "keys " + op_label(graph.ops[i], i);
      hb.cat = "hbm";
      hb.tid = kHbmTid;
      hb.ts = start_cycle;
      hb.dur = state[i].hbm_ready - start_cycle;
      hb.num_args = {{"bytes", static_cast<double>(graph.ops[i].hbm_bytes)},
                     {"bytes_per_cycle", hbm_bpc}};
      timeline->record(std::move(hb));
    }
  }

  std::vector<std::size_t> running;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i].unmet_deps == 0) running.push_back(i);
  }

  if (profiler) profiler->begin(cfg.num_units, cfg.cores_per_unit, nullptr);
  if (mem_profiler) mem_profiler->begin(cfg, timeline);

  double now = 0;
  double busy_integral = 0;  // lane-cycles actually delivered
  double stall_integral = 0; // time with live ops but zero runnable compute
  std::array<double, kNumOpClasses> class_active{};  // per-class busy wall
  std::size_t completed = 0;

  // One completion interval. A replayed interval (before the resume cursor)
  // runs its arithmetic and the UnitProfiler but emits no timeline events and
  // no spans.
  auto interval = [&](bool replay) {
    obs::Timeline* tl = replay ? nullptr : timeline;
    const bool op_spans = !replay && run.traces(obs::TraceDetail::Ops);
    // Work-conserving equal share of the cores among live compute demands.
    std::size_t compute_live = 0;
    for (std::size_t idx : running) compute_live += state[idx].work > 0 ? 1 : 0;
    const double core_share = compute_live ? cores / compute_live : 0;

    // Next completion event.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t idx : running) {
      const OpState& s = state[idx];
      double t_done = s.work > 0 ? s.work / core_share : 0;
      t_done = std::max(t_done, s.hbm_ready - now);
      dt = std::min(dt, t_done);
    }
    if (!(dt > 0) || !std::isfinite(dt)) dt = 1.0;  // zero-work ops finish now

    if (compute_live == 0) stall_integral += dt;
    // Per-class active wall time: classes with live work this interval.
    {
      std::array<bool, kNumOpClasses> live{};
      for (std::size_t idx : running) {
        if (state[idx].work > 0) live[static_cast<std::size_t>(state[idx].cls)] = true;
      }
      for (std::size_t c = 0; c < kNumOpClasses; ++c) {
        if (live[c]) class_active[c] += dt;
      }
    }

    // Advance time and drain work.
    now += dt;
    double iv_delivered = 0, iv_reduction = 0, iv_scratch = 0;
    std::array<double, kNumOpClasses> iv_class{};
    std::vector<std::size_t> still_running;
    for (std::size_t idx : running) {
      OpState& s = state[idx];
      if (s.work > 0) {
        const double delivered = std::min(s.work, core_share * dt);
        if (profiler) {
          const double d_scratch = delivered * s.frac_scratch;
          const double d_compute = delivered - d_scratch;
          iv_delivered += delivered;
          iv_scratch += d_scratch;
          iv_reduction += d_compute * s.reduction_share;
          iv_class[static_cast<std::size_t>(s.cls)] += d_compute;
        }
        busy_integral += delivered / s.work * s.busy_lanes;  // proportional
        s.busy_lanes -= delivered / std::max(s.work, 1e-9) * s.busy_lanes;
        s.work -= delivered;
        if (s.work < 1e-9) s.work = 0;
        if (s.work == 0) s.compute_done_time = now;
      }
      if (s.work == 0 && now + 1e-9 >= s.hbm_ready) {
        ++completed;
        const HighOp& op = graph.ops[idx];
        if (tl) {
          obs::TraceEvent ev;
          ev.name = op_label(op, idx);
          ev.cat = class_tag(s.cls);
          ev.ts = s.start_time;
          ev.dur = now - s.start_time;
          ev.tid = rows[static_cast<std::size_t>(s.cls)].reserve(s.start_time, now);
          ev.num_args = {
              {"ready_cycle", s.start_time},
              {"end_cycle", now},
              {"hbm_ready_cycle", s.hbm_ready},
              {"hbm_wait_cycles",
               std::max(0.0, now - std::max(s.compute_done_time, s.start_time))},
              {"hbm_bytes", static_cast<double>(op.hbm_bytes)},
          };
          tl->record(std::move(ev));
          if (s.faults.total() > 0) {
            record_fault(*tl, op, idx, s.faults,
                         static_cast<double>(s.retry_cycles), s.start_time,
                         now - s.start_time);
          }
        }
        if (op_spans) {
          run.span(obs::child_context(run.context(), to_string(op.kind), idx),
                   to_string(op.kind), "sim/ops", s.start_time, now - s.start_time,
                   {{"op", static_cast<double>(idx)},
                    {"hbm_bytes", static_cast<double>(op.hbm_bytes)}},
                   {{"class", class_tag(s.cls)}});
        }
        for (std::size_t dep : s.dependents) {
          if (--state[dep].unmet_deps == 0) {
            state[dep].start_time = now;
            still_running.push_back(dep);
          }
        }
      } else {
        still_running.push_back(idx);
      }
    }
    if (profiler) {
      profiler->accrue(dt, iv_delivered, iv_reduction, iv_scratch, iv_class,
                       compute_live > 0);
    }
    running = std::move(still_running);
  };

  for (std::uint64_t i = 0; i < run.resume_step(); ++i) {
    if (running.empty()) {
      throw CheckpointError("event engine: checkpoint step past end of schedule");
    }
    interval(/*replay=*/true);
  }
  run.start(now);
  while (!running.empty()) {
    if (const StopReason why = run.poll(); why != StopReason::None) run.stop(why, now);
    interval(/*replay=*/false);
    if (run.step_done()) run.checkpoint(now);
  }
  if (completed != graph.ops.size()) {
    throw std::logic_error("event sim: dependency cycle or unreachable ops");
  }
  run.complete(now);

  const std::uint64_t total_cycles = static_cast<std::uint64_t>(std::ceil(now));
  costs.add_counters(reg);
  reg.add(metrics::kCycles, total_cycles);
  reg.add(metrics::kStall, static_cast<std::uint64_t>(std::ceil(stall_integral)),
          {{"cause", "hbm"}});
  reg.add(metrics::kTransposeCycles, total_transpose);
  reg.set_gauge(metrics::kTimeUs, now / (cfg.freq_ghz * 1e3));
  const double peak = static_cast<double>(cfg.peak_lanes());
  reg.set_gauge(metrics::kUtilization, now > 0 ? busy_integral / (peak * now) : 0);
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    const char* tag = class_tag(static_cast<OpClass>(c));
    reg.add(metrics::kCycles,
            static_cast<std::uint64_t>(std::ceil(class_active[c])),
            {{"class", tag}});
    reg.set_gauge(metrics::kUtilization,
                  class_active[c] > 0
                      ? static_cast<double>(costs.class_busy_lanes(c)) /
                            (peak * class_active[c])
                      : 0.0,
                  {{"class", tag}});
  }
  result.finalize();
  if (profiler) profiler->finish(total_cycles, result.profile);
  if (mem_profiler) {
    // Feed in HBM prefetch order from per-op state the event loop left
    // behind: an op's working set is released when
    // both its compute and its key streaming are done, which is exactly its
    // retirement condition above.
    for (std::size_t i = 0; i < graph.ops.size(); ++i) {
      mem_profiler->record_op(
          graph.ops[i],
          std::max(state[i].compute_done_time, state[i].hbm_ready));
    }
    mem_profiler->finish(total_cycles, result.mem_profile);
  }
  return result;
}

metaop::OpGraph merge_graphs(const std::vector<OpGraph>& graphs,
                             const std::string& name) {
  // Proportional interleave: ops of the streams alternate in schedule order
  // (preserving each stream's internal dependencies), so key prefetching for
  // one stream overlaps compute of the others — the time-sharing scheduling
  // of §5.4.
  OpGraph merged;
  merged.name = name;
  std::vector<std::size_t> next(graphs.size(), 0);
  // Remap: new index of op j of graph g.
  std::vector<std::vector<std::size_t>> remap(graphs.size());
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    remap[g].resize(graphs[g].ops.size());
  }
  for (;;) {
    // Pick the stream with the smallest consumed fraction.
    std::size_t best = graphs.size();
    double best_frac = 2.0;
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      if (next[g] >= graphs[g].ops.size()) continue;
      const double frac =
          static_cast<double>(next[g]) / static_cast<double>(graphs[g].ops.size());
      if (frac < best_frac) {
        best_frac = frac;
        best = g;
      }
    }
    if (best == graphs.size()) break;
    HighOp op = graphs[best].ops[next[best]];
    for (std::size_t& dep : op.deps) dep = remap[best][dep];
    remap[best][next[best]] = merged.ops.size();
    merged.add(std::move(op));
    ++next[best];
  }
  return merged;
}

}  // namespace alchemist::sim
