#include "sim/event_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cost_pass.h"
#include "sim/schedule.h"

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
  // Static per-op costs: the transpose share of `work`, and the reduction
  // share of the rest, split each interval's delivered work.
  double scratch_share = 0;
  double reduction_share = 0;
  OpClass cls = OpClass::Elementwise;
  std::size_t unmet_deps = 0;
  std::vector<std::size_t> dependents;
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

  // Inert fault models are dropped so the run stays bit-identical (see
  // simulate_alchemist).
  fault::FaultModel* fault = fault_model && fault_model->enabled() ? fault_model : nullptr;
  const arch::ArchConfig cfg = fault ? fault->degraded(config) : config;

  // A step is one completion interval. A resumed run re-runs the cost pass
  // from the fault seed and replays the completed intervals silently.
  RunControl run(control, kEventEngine, graph, config, fault);

  const double cores = static_cast<double>(cfg.total_cores());
  const double hbm_bpc = cfg.hbm_bytes_per_cycle();

  // Observers read the schedule after the run, and it is recorded only for
  // them: op records for a Timeline, a MemProfiler or per-op spans (which
  // need each op's ready time), completion intervals for a UnitProfiler.
  const bool record_ops =
      timeline || mem_profiler || run.traces(obs::TraceDetail::Ops);
  const bool record_intervals = profiler != nullptr;
  Schedule sched{&graph, cfg, /*event=*/true, run.resume_step(),
                 /*with_costs=*/timeline != nullptr};
  if (record_ops) {
    sched.ops.reserve(graph.ops.size());
    sched.retired.reserve(graph.ops.size());
  }
  if (timeline) sched.costs.reserve(graph.ops.size());
  if (record_intervals) sched.intervals.reserve(graph.ops.size());

  // Costing in graph-index order samples faults in that order. Key
  // prefetching: the scheduler knows the op stream in advance, so HBM streams
  // each op's keys in graph order starting at t=0; an op can only retire once
  // its keys have landed.
  CostPass costs(graph, cfg, fault);
  FetchStream fetches(hbm_bpc);
  std::uint64_t total_transpose = 0;
  std::vector<OpState> state(graph.ops.size());
  for (std::size_t i = 0; i < graph.ops.size(); ++i) {
    const OpCost c = costs.cost(i);
    OpState& s = state[i];
    s.cls = c.cls;
    s.reduction_share = c.reduction_share;
    s.busy_lanes = static_cast<double>(c.busy_lanes);
    s.work = static_cast<double>(c.core_cycles) + static_cast<double>(c.retry_cycles);
    if (c.transpose > 0) {
      // Serialized half of the transpose, expressed as extra machine work.
      const double transpose_work = c.transpose * cores;
      s.work += transpose_work;
      s.scratch_share = s.work > 0 ? transpose_work / s.work : 0.0;
      total_transpose += static_cast<std::uint64_t>(c.transpose);
    }
    const auto [fetch_start, fetch_end] = fetches.next(graph.ops[i].hbm_bytes);
    s.hbm_ready = fetch_end;
    if (record_ops) {
      sched.add({static_cast<std::uint32_t>(i), 0, 0, 0, 0, fetch_start, fetch_end}, c);
    }
    s.unmet_deps = graph.ops[i].deps.size();
    for (std::size_t dep : graph.ops[i].deps) {
      if (dep >= i) throw std::invalid_argument("event sim: deps must point backwards");
      state[dep].dependents.push_back(i);
    }
  }

  std::vector<std::size_t> running;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i].unmet_deps == 0) running.push_back(i);
  }

  double now = 0;
  double busy_integral = 0;  // lane-cycles actually delivered
  double stall_integral = 0; // time with live ops but zero runnable compute
  std::array<double, kNumOpClasses> class_active{};  // per-class busy wall
  std::size_t completed = 0;
  std::uint32_t steps = 0;  // completion intervals run, replays included

  // One completion interval. A replayed interval (before the resume cursor)
  // is scheduled and recorded but emits no spans.
  auto interval = [&](bool replay) {
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
    const std::uint32_t step = steps++;
    CompletionInterval iv;
    iv.dt = dt;
    iv.compute_live = compute_live > 0;
    std::vector<std::size_t> still_running;
    for (std::size_t idx : running) {
      OpState& s = state[idx];
      if (s.work > 0) {
        const double delivered = std::min(s.work, core_share * dt);
        if (record_intervals) iv.drain(s.cls, delivered, s.scratch_share, s.reduction_share);
        busy_integral += delivered / s.work * s.busy_lanes;  // proportional
        s.busy_lanes -= delivered / std::max(s.work, 1e-9) * s.busy_lanes;
        s.work -= delivered;
        if (s.work < 1e-9) s.work = 0;
        if (s.work == 0 && record_ops) sched.ops[idx].compute_end = now;
      }
      if (s.work == 0 && now + 1e-9 >= s.hbm_ready) {
        ++completed;
        if (record_ops) {
          ScheduledOp& r = sched.ops[idx];
          r.step = step;
          r.retire = now;
          sched.retired.push_back(static_cast<std::uint32_t>(idx));
        }
        if (op_spans) {  // implies `record_ops`
          const HighOp& op = graph.ops[idx];
          const double start = sched.ops[idx].start;
          run.span(obs::child_context(run.context(), to_string(op.kind), idx),
                   to_string(op.kind), "sim/ops", start, now - start,
                   {{"op", static_cast<double>(idx)},
                    {"hbm_bytes", static_cast<double>(op.hbm_bytes)}},
                   {{"class", class_tag(s.cls)}});
        }
        for (std::size_t dep : s.dependents) {
          if (--state[dep].unmet_deps == 0) {
            if (record_ops) sched.ops[dep].start = now;
            still_running.push_back(dep);
          }
        }
      } else {
        still_running.push_back(idx);
      }
    }
    if (record_intervals) sched.intervals.push_back(iv);
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
    if (const StopReason why = run.poll(); why != StopReason::None) {
      if (timeline) emit_timeline(sched, *timeline);
      run.stop(why, now);
    }
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
  if (record_ops || record_intervals) {
    sched.complete = true;
    sched.end_cycles = total_cycles;
    observe(sched, timeline, profiler, mem_profiler, result);
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
