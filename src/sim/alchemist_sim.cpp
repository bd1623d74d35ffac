#include "sim/alchemist_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cost_pass.h"
#include "sim/event_sim.h"
#include "sim/schedule.h"

namespace alchemist::sim {

namespace {

using metaop::class_tag;
using metaop::HighOp;
using metaop::kNumOpClasses;
using metaop::OpClass;
using metaop::OpGraph;

// One run as the driver set it up; a policy steps it.
struct Run {
  const OpGraph& graph;
  obs::Timeline* timeline;
  UnitProfiler* unit;
  MemProfiler* mem;
  RunControl& control;
  CostPass& costs;
  Schedule& sched;
};

// A policy's totals, accumulated as it steps and reported by the driver.
struct RunTotals {
  double end = 0;    // cycle the executed steps reach (HBM stall included)
  double stall = 0;  // sim.stall{cause=hbm}
  double busy = 0;   // lane-cycles delivered: the utilization numerator
  std::array<double, kNumOpClasses> class_wall{};  // per-class busy wall
};

// ASAP levels over the dependency DAG.
std::vector<std::vector<std::size_t>> asap_levels(const OpGraph& graph) {
  std::vector<std::size_t> level(graph.ops.size(), 0);
  std::size_t max_level = 0;
  for (std::size_t i = 0; i < graph.ops.size(); ++i) {
    for (std::size_t dep : graph.ops[i].deps) {
      if (dep >= i) throw std::invalid_argument("simulate: deps must point backwards");
      level[i] = std::max(level[i], level[dep] + 1);
    }
    max_level = std::max(max_level, level[i]);
  }
  std::vector<std::vector<std::size_t>> levels(max_level + 1);
  for (std::size_t i = 0; i < graph.ops.size(); ++i) levels[level[i]].push_back(i);
  return levels;
}

// The level engine: one ASAP level per step. Walking the levels in order
// costs the ops — and samples their faults — in ASAP-level order.
struct LevelBarrier {
  static constexpr const char* kEngine = kLevelEngine;
  static constexpr const char* kAccelerator = "Alchemist";
  static constexpr bool kEvent = false;
  static constexpr bool kClassBusyRows = true;  // sim.busy_lane_cycles{class=}

  // Op records for a Timeline or a MemProfiler, level frames for a Timeline
  // or a UnitProfiler.
  explicit LevelBarrier(const Run& run) : r(run) {
    if (record_ops) r.sched.ops.reserve(r.graph.ops.size());
    if (r.sched.with_costs) r.sched.costs.reserve(r.graph.ops.size());
    if (record_levels) r.sched.levels.reserve(levels.size());
  }

  bool done() const { return next == levels.size(); }
  void before_stop() { flush_chain(); }

  // One ASAP level. Cores are fungible across the ops of a level: Meta-OP
  // work pools and fills waves jointly; only the pooled tail is padded.
  void step(bool silent) {
    const std::size_t level_idx = next++;
    const auto& level = levels[level_idx];
    if (level.empty()) return;
    const bool level_spans = !silent && r.control.traces(obs::TraceDetail::Phases);
    const bool op_spans = !silent && r.control.traces(obs::TraceDetail::Ops);
    // Narrow levels at Phases detail fold into the running chain span, so
    // they never mint a per-level context.
    const bool chained = level_spans && !op_spans && level.size() < kChainWidth;
    obs::TraceContext level_ctx;
    if (level_spans && !chained) {
      level_ctx = obs::child_context(r.control.context(), "level", level_idx);
    }
    LevelFrame frame{.start = static_cast<std::uint64_t>(totals.end), .ops = level.size()};
    // The pooled model executes a level's work as if ops ran back to back at
    // full machine width, so op slices, spans and residency tile the level.
    double cursor = totals.end;
    for (std::size_t idx : level) {
      const HighOp& op = r.graph.ops[idx];
      const OpCost c = r.costs.cost(idx);
      const auto cls = static_cast<std::size_t>(c.cls);
      const auto transpose = static_cast<std::uint64_t>(std::ceil(c.transpose));
      // Data movement for the op's working set through the local scratchpads
      // is covered by the per-lane operand fetch modeled inside the Meta-OP
      // window; only off-chip traffic is charged separately.
      frame.core_cycles += c.work();
      frame.reduction_core_cycles += 2 * c.meta_ops;
      frame.transpose_cycles += transpose;
      r.sched.class_core_cycles[cls] += c.work();
      totals.class_wall[cls] +=
          static_cast<double>((c.work() + cores - 1) / cores + transpose);
      const double dur = static_cast<double>(c.work()) / static_cast<double>(cores) +
                         static_cast<double>(transpose);
      if (record_ops) {
        const auto [fetch_start, fetch_end] = fetches.next(op.hbm_bytes);
        r.sched.add({static_cast<std::uint32_t>(idx), static_cast<std::uint32_t>(level_idx),
                     cursor, cursor + dur, cursor + dur, fetch_start, fetch_end},
                    c);
      }
      if (op_spans) {
        r.control.span(obs::child_context(level_ctx, to_string(op.kind), idx),
                       to_string(op.kind), "sim/ops", cursor, dur,
                       {{"op", static_cast<double>(idx)},
                        {"level", static_cast<double>(level_idx)},
                        {"core_cycles", static_cast<double>(c.core_cycles)},
                        {"hbm_bytes", static_cast<double>(op.hbm_bytes)}},
                       {{"class", class_tag(c.cls)}});
      }
      cursor += dur;
    }
    frame.wall = (frame.core_cycles + cores - 1) / cores + frame.transpose_cycles;
    if (record_levels) r.sched.levels.push_back(frame);
    if (chained) {
      if (chain_len >= kChainMaxLevels) flush_chain();
      if (chain_len == 0) {
        chain_start_level = level_idx;
        chain_start_ts = totals.end;
      }
      ++chain_len;
    } else if (level_spans) {
      flush_chain();  // a wide level ends any run of narrow levels
      r.control.span(level_ctx, "level", "sim/levels", totals.end,
                     static_cast<double>(frame.wall),
                     {{"level", static_cast<double>(level_idx)},
                      {"ops", static_cast<double>(level.size())},
                      {"core_cycles", static_cast<double>(frame.core_cycles)}});
    }
    totals.end += static_cast<double>(frame.wall);
  }

  // Key material is prefetched with double buffering across the whole graph
  // (the on-chip scheduler knows the op stream in advance), so HBM streaming
  // overlaps *globally* with compute; only the excess stalls.
  void finish() {
    const double hbm_cycles = std::ceil(static_cast<double>(r.costs.hbm_bytes()) /
                                        r.sched.cfg.hbm_bytes_per_cycle());
    if (hbm_cycles > totals.end) {
      totals.stall = hbm_cycles - totals.end;
      totals.end = hbm_cycles;
      if (r.control.traces(obs::TraceDetail::Phases)) {
        r.control.span(obs::child_context(r.control.context(), "hbm-stall", 0),
                       "hbm-stall", "sim/levels", totals.end - totals.stall, totals.stall,
                       {{"cycles", totals.stall}});
      }
    }
    flush_chain();
    r.sched.stall_cycles = static_cast<std::uint64_t>(totals.stall);
    totals.busy = static_cast<double>(r.costs.busy_lanes());
  }

  RunTotals totals;

  // At Phases detail, runs of narrow levels (fewer than kChainWidth ops —
  // far below machine saturation) coalesce into one "chain" span, split
  // every kChainMaxLevels so long chains keep visible progress. Bootstrap
  // graphs are ~99% such levels; per-level spans for them cost more in
  // traced-run overhead (and Perfetto slice count) than they say — the
  // interesting structure is the handful of wide levels between chains. Ops
  // detail keeps the full per-level resolution.
  static constexpr std::size_t kChainWidth = 8;
  static constexpr std::uint64_t kChainMaxLevels = 32;

  void flush_chain() {
    if (chain_len == 0) return;
    r.control.span(obs::child_context(r.control.context(), "chain", chain_start_level),
                   "chain", "sim/levels", chain_start_ts, totals.end - chain_start_ts,
                   {{"first_level", static_cast<double>(chain_start_level)},
                    {"levels", static_cast<double>(chain_len)}});
    chain_len = 0;
  }

  const Run r;
  const std::vector<std::vector<std::size_t>> levels = asap_levels(r.graph);
  const std::uint64_t cores = r.sched.cfg.total_cores();
  const bool record_ops = r.timeline || r.mem;
  const bool record_levels = r.timeline || r.unit;
  FetchStream fetches{r.sched.cfg.hbm_bytes_per_cycle()};
  std::size_t next = 0;  // the next level
  double chain_start_ts = 0;
  std::uint64_t chain_start_level = 0;
  std::uint64_t chain_len = 0;
};

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

// The event engine: one completion interval per step. Ops become ready the
// moment their dependencies complete, running ops share the cores equally
// and HBM streams their keys in graph order; an op retires once both its
// work and its keys are done. Costing every op up front, in graph index
// order, makes that the fault sampling order.
struct EqualShare {
  static constexpr const char* kEngine = kEventEngine;
  static constexpr const char* kAccelerator = "Alchemist(event)";
  static constexpr bool kEvent = true;
  static constexpr bool kClassBusyRows = false;

  // Op records for a Timeline, a MemProfiler or per-op spans (which need
  // each op's ready time), completion intervals for a UnitProfiler.
  explicit EqualShare(const Run& run) : r(run), state(run.graph.ops.size()) {
    const std::size_t n = r.graph.ops.size();
    if (record_ops) {
      r.sched.ops.reserve(n);
      r.sched.retired.reserve(n);
    }
    if (r.sched.with_costs) r.sched.costs.reserve(n);
    if (record_intervals) r.sched.intervals.reserve(n);

    // Key prefetching: the scheduler knows the op stream in advance, so HBM
    // streams each op's keys in graph order starting at t=0; an op can only
    // retire once its keys have landed.
    FetchStream fetches(r.sched.cfg.hbm_bytes_per_cycle());
    for (std::size_t i = 0; i < n; ++i) {
      const OpCost c = r.costs.cost(i);
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
      }
      const auto [fetch_start, fetch_end] = fetches.next(r.graph.ops[i].hbm_bytes);
      s.hbm_ready = fetch_end;
      if (record_ops) {
        r.sched.add({static_cast<std::uint32_t>(i), 0, 0, 0, 0, fetch_start, fetch_end}, c);
      }
      s.unmet_deps = r.graph.ops[i].deps.size();
      for (std::size_t dep : r.graph.ops[i].deps) {
        if (dep >= i) throw std::invalid_argument("event sim: deps must point backwards");
        state[dep].dependents.push_back(i);
      }
      if (s.unmet_deps == 0) running.push_back(i);
    }
  }

  // Dependencies point backwards, so every op becomes ready and retires
  // before no op is left running.
  bool done() const { return running.empty(); }
  void before_stop() {}

  // One completion interval.
  void step(bool silent) {
    const bool op_spans = !silent && r.control.traces(obs::TraceDetail::Ops);
    // Work-conserving equal share of the cores among live compute demands.
    std::size_t compute_live = 0;
    for (std::size_t idx : running) compute_live += state[idx].work > 0 ? 1 : 0;
    const double core_share = compute_live ? cores / compute_live : 0;

    // Next completion event.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t idx : running) {
      const OpState& s = state[idx];
      double t_done = s.work > 0 ? s.work / core_share : 0;
      t_done = std::max(t_done, s.hbm_ready - totals.end);
      dt = std::min(dt, t_done);
    }
    if (!(dt > 0) || !std::isfinite(dt)) dt = 1.0;  // zero-work ops finish now

    // Time with live ops but zero runnable compute stalls on HBM.
    if (compute_live == 0) totals.stall += dt;
    // Per-class active wall time: classes with live work this interval.
    std::array<bool, kNumOpClasses> live{};
    for (std::size_t idx : running) {
      if (state[idx].work > 0) live[static_cast<std::size_t>(state[idx].cls)] = true;
    }
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      if (live[c]) totals.class_wall[c] += dt;
    }

    // Advance time and drain work.
    const double now = totals.end += dt;
    const std::uint32_t step = steps++;
    CompletionInterval iv{.dt = dt, .compute_live = compute_live > 0};
    std::vector<std::size_t> still_running;
    for (std::size_t idx : running) {
      OpState& s = state[idx];
      if (s.work > 0) {
        const double delivered = std::min(s.work, core_share * dt);
        if (record_intervals) iv.drain(s.cls, delivered, s.scratch_share, s.reduction_share);
        totals.busy += delivered / s.work * s.busy_lanes;  // proportional
        s.busy_lanes -= delivered / std::max(s.work, 1e-9) * s.busy_lanes;
        s.work -= delivered;
        if (s.work < 1e-9) s.work = 0;
        if (s.work == 0 && record_ops) r.sched.ops[idx].compute_end = now;
      }
      if (s.work == 0 && now + 1e-9 >= s.hbm_ready) {
        if (record_ops) {
          ScheduledOp& op = r.sched.ops[idx];
          op.step = step;
          op.retire = now;
          r.sched.retired.push_back(static_cast<std::uint32_t>(idx));
        }
        if (op_spans) {  // implies `record_ops`
          const HighOp& op = r.graph.ops[idx];
          const double start = r.sched.ops[idx].start;
          r.control.span(obs::child_context(r.control.context(), to_string(op.kind), idx),
                         to_string(op.kind), "sim/ops", start, now - start,
                         {{"op", static_cast<double>(idx)},
                          {"hbm_bytes", static_cast<double>(op.hbm_bytes)}},
                         {{"class", class_tag(s.cls)}});
        }
        for (std::size_t dep : s.dependents) {
          if (--state[dep].unmet_deps == 0) {
            if (record_ops) r.sched.ops[dep].start = now;
            still_running.push_back(dep);
          }
        }
      } else {
        still_running.push_back(idx);
      }
    }
    if (record_intervals) r.sched.intervals.push_back(iv);
    running = std::move(still_running);
  }

  void finish() { totals.stall = std::ceil(totals.stall); }

  RunTotals totals;

  const Run r;
  const double cores = static_cast<double>(r.sched.cfg.total_cores());
  const bool record_ops = r.timeline || r.mem || r.control.traces(obs::TraceDetail::Ops);
  const bool record_intervals = r.unit != nullptr;
  std::vector<OpState> state;
  std::vector<std::size_t> running;
  std::uint32_t steps = 0;  // completion intervals run, replays included
};

// The one driver: everything a run does around its policy's steps.
template <class Policy>
SimResult drive(const OpGraph& graph, const arch::ArchConfig& config,
                obs::Timeline* timeline, fault::FaultModel* fault_model,
                SimControl* control, UnitProfiler* unit, MemProfiler* mem) {
  SimResult result;
  result.workload = graph.name;
  result.accelerator = Policy::kAccelerator;
  obs::Registry& reg = result.registry;

  // An inert fault model (zero rates, no mask, no redundancy) must leave the
  // run bit-identical to a fault-free one, so it is dropped entirely here.
  fault::FaultModel* fault = fault_model && fault_model->enabled() ? fault_model : nullptr;
  const arch::ArchConfig cfg = fault ? fault->degraded(config) : config;

  // A resumed run restarts the fault model at its seed (RunControl), re-runs
  // the cost pass and replays the completed steps silently: they are
  // scheduled and recorded, but they emit no spans and count no steps, and
  // the Timeline skips them.
  RunControl run(control, Policy::kEngine, graph, config, fault);
  CostPass costs(graph, cfg, fault);
  Schedule sched{&graph, cfg, Policy::kEvent, run.resume_step(),
                 /*with_costs=*/timeline != nullptr};
  Policy policy({graph, timeline, unit, mem, run, costs, sched});
  const RunTotals& t = policy.totals;
  for (std::uint64_t i = 0; i < run.resume_step(); ++i) {
    if (policy.done()) {
      throw CheckpointError(std::string(Policy::kEngine) +
                            " engine: checkpoint step past end of schedule");
    }
    policy.step(/*silent=*/true);
  }
  run.start(t.end);
  StopReason why = StopReason::None;
  while (!policy.done() && (why = run.poll()) == StopReason::None) {
    policy.step(/*silent=*/false);
    if (run.step_done()) run.checkpoint(t.end);
  }

  if (why == StopReason::None) {
    policy.finish();
    run.complete(t.end);
    // Totals and derived rates into the registry; finalize() projects them
    // onto the legacy aggregate fields.
    const auto end_cycles = static_cast<std::uint64_t>(std::ceil(t.end));
    costs.add_counters(reg);
    reg.add(metrics::kCycles, end_cycles);
    reg.add(metrics::kStall, static_cast<std::uint64_t>(t.stall), {{"cause", "hbm"}});
    reg.set_gauge(metrics::kTimeUs, t.end / (cfg.freq_ghz * 1e3));
    const double peak = static_cast<double>(cfg.peak_lanes());
    reg.set_gauge(metrics::kUtilization, t.end > 0 ? t.busy / (peak * t.end) : 0.0);
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      const char* tag = class_tag(static_cast<OpClass>(c));
      const std::uint64_t busy = costs.class_busy_lanes(c);
      reg.add(metrics::kCycles, static_cast<std::uint64_t>(std::ceil(t.class_wall[c])),
              {{"class", tag}});
      if (Policy::kClassBusyRows) reg.add(metrics::kBusyLaneCycles, busy, {{"class", tag}});
      reg.set_gauge(metrics::kUtilization,
                    t.class_wall[c] > 0
                        ? static_cast<double>(busy) / (peak * t.class_wall[c])
                        : 0.0,
                    {{"class", tag}});
    }
    result.finalize();
    sched.complete = true;
    sched.end_cycles = end_cycles;
  } else {
    policy.before_stop();
  }
  // After finalize: the profiles are side-channel views, never part of the
  // registry the bit-identity checks compare. A stopped run writes the steps
  // it executed to its Timeline, then throws.
  observe(sched, timeline, unit, mem, result);
  if (why != StopReason::None) run.stop(why, t.end);
  return result;
}

}  // namespace

SimResult simulate_alchemist(const OpGraph& graph, const arch::ArchConfig& config,
                             obs::Timeline* timeline, fault::FaultModel* fault_model,
                             SimControl* control, UnitProfiler* profiler,
                             MemProfiler* mem_profiler) {
  return drive<LevelBarrier>(graph, config, timeline, fault_model, control, profiler,
                             mem_profiler);
}

SimResult simulate_alchemist_events(const OpGraph& graph, const arch::ArchConfig& config,
                                    obs::Timeline* timeline, fault::FaultModel* fault_model,
                                    SimControl* control, UnitProfiler* profiler,
                                    MemProfiler* mem_profiler) {
  return drive<EqualShare>(graph, config, timeline, fault_model, control, profiler,
                           mem_profiler);
}

}  // namespace alchemist::sim
