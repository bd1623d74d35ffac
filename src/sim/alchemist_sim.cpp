#include "sim/alchemist_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
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

}  // namespace

SimResult simulate_alchemist(const OpGraph& graph, const arch::ArchConfig& config,
                             obs::Timeline* timeline, fault::FaultModel* fault_model,
                             SimControl* control, UnitProfiler* profiler,
                             MemProfiler* mem_profiler) {
  SimResult result;
  result.workload = graph.name;
  result.accelerator = "Alchemist";
  obs::Registry& reg = result.registry;

  // An inert fault model (zero rates, no mask, no redundancy) must leave the
  // run bit-identical to a fault-free one, so it is dropped entirely here.
  fault::FaultModel* fault = fault_model && fault_model->enabled() ? fault_model : nullptr;
  const arch::ArchConfig cfg = fault ? fault->degraded(config) : config;
  const auto levels = asap_levels(graph);

  // A step is one level. A resumed run re-runs the cost pass from the
  // fault seed and folds the completed levels silently.
  RunControl run(control, kLevelEngine, graph, config, fault);
  const std::uint64_t levels_done = run.resume_step();
  if (levels_done > levels.size()) {
    throw CheckpointError("level engine: checkpoint step past end of schedule");
  }

  // Walking the levels in order costs the ops — and samples their faults — in
  // ASAP-level order.
  CostPass costs(graph, cfg, fault);

  // Observers read the schedule after the run, and it is recorded only for
  // them: op records for a Timeline or a MemProfiler, level frames for a
  // Timeline or a UnitProfiler.
  const bool record_ops = timeline || mem_profiler;
  const bool record_levels = timeline || profiler;
  Schedule sched{&graph, cfg, /*event=*/false, levels_done,
                 /*with_costs=*/timeline != nullptr};
  if (record_ops) sched.ops.reserve(graph.ops.size());
  if (timeline) sched.costs.reserve(graph.ops.size());
  if (record_levels) sched.levels.reserve(levels.size());

  const std::uint64_t cores = cfg.total_cores();
  const double hbm_bpc = cfg.hbm_bytes_per_cycle();
  FetchStream fetches(hbm_bpc);

  std::uint64_t total_cycles = 0;
  std::uint64_t total_transpose = 0;
  std::array<std::uint64_t, kNumOpClasses> class_wall{};

  // At Phases detail, runs of narrow levels (fewer than kChainWidth ops —
  // far below machine saturation) coalesce into one "chain" span, split
  // every kChainMaxLevels so long chains keep visible progress. Bootstrap
  // graphs are ~99% such levels; per-level spans for them cost more in
  // traced-run overhead (and Perfetto slice count) than they say — the
  // interesting structure is the handful of wide levels between chains. Ops
  // detail keeps the full per-level resolution.
  constexpr std::size_t kChainWidth = 8;
  constexpr std::uint64_t kChainMaxLevels = 32;
  double chain_start_ts = 0;
  std::uint64_t chain_start_level = 0;
  std::uint64_t chain_len = 0;
  auto flush_chain = [&]() {
    if (chain_len == 0) return;
    run.span(obs::child_context(run.context(), "chain", chain_start_level), "chain",
             "sim/levels", chain_start_ts,
             static_cast<double>(total_cycles) - chain_start_ts,
             {{"first_level", static_cast<double>(chain_start_level)},
              {"levels", static_cast<double>(chain_len)}});
    chain_len = 0;
  };

  // One ASAP level. Cores are fungible across the ops of a level: Meta-OP
  // work pools and fills waves jointly; only the pooled tail is padded. A
  // level before the resume cursor is `folded`: it is scheduled and recorded,
  // but it emits no spans.
  auto run_level = [&](std::size_t level_idx, bool folded) {
    const auto& level = levels[level_idx];
    if (level.empty()) return;
    const bool level_spans = !folded && run.traces(obs::TraceDetail::Phases);
    const bool op_spans = !folded && run.traces(obs::TraceDetail::Ops);
    // Narrow levels at Phases detail fold into the running chain span, so
    // they never mint a per-level context.
    const bool chained = level_spans && !op_spans && level.size() < kChainWidth;
    obs::TraceContext level_ctx;
    if (level_spans && !chained) {
      level_ctx = obs::child_context(run.context(), "level", level_idx);
    }
    std::uint64_t level_core_cycles = 0;  // exact core-cycles of work
    std::uint64_t level_reduction = 0;    // its 2-cycle Meta-OP tails
    std::uint64_t level_transpose = 0;    // serialized transpose traffic
    // The pooled model executes a level's work as if ops ran back to back at
    // full machine width, so op slices, spans and residency tile the level.
    double cursor = static_cast<double>(total_cycles);
    for (std::size_t idx : level) {
      const HighOp& op = graph.ops[idx];
      const OpCost c = costs.cost(idx);
      const auto cls = static_cast<std::size_t>(c.cls);
      const std::uint64_t transpose =
          static_cast<std::uint64_t>(std::ceil(c.transpose));
      // Data movement for the op's working set through the local scratchpads
      // is covered by the per-lane operand fetch modeled inside the Meta-OP
      // window; only off-chip traffic is charged separately.
      level_core_cycles += c.work();
      level_reduction += 2 * c.meta_ops;
      level_transpose += transpose;
      sched.class_core_cycles[cls] += c.work();
      total_transpose += transpose;
      class_wall[cls] += (c.work() + cores - 1) / cores + transpose;
      const double dur = static_cast<double>(c.work()) / static_cast<double>(cores) +
                         static_cast<double>(transpose);
      if (record_ops) {
        const auto [fetch_start, fetch_end] = fetches.next(op.hbm_bytes);
        sched.add({static_cast<std::uint32_t>(idx), static_cast<std::uint32_t>(level_idx),
                   cursor, cursor + dur, cursor + dur, fetch_start, fetch_end},
                  c);
      }
      if (op_spans) {
        run.span(obs::child_context(level_ctx, to_string(op.kind), idx),
                 to_string(op.kind), "sim/ops", cursor, dur,
                 {{"op", static_cast<double>(idx)},
                  {"level", static_cast<double>(level_idx)},
                  {"core_cycles", static_cast<double>(c.core_cycles)},
                  {"hbm_bytes", static_cast<double>(op.hbm_bytes)}},
                 {{"class", class_tag(c.cls)}});
      }
      cursor += dur;
    }
    const std::uint64_t level_wall =
        (level_core_cycles + cores - 1) / cores + level_transpose;
    if (record_levels) {
      sched.levels.push_back({total_cycles, level_wall, level_core_cycles, level_reduction,
                              level_transpose, level.size()});
    }
    if (chained) {
      if (chain_len >= kChainMaxLevels) flush_chain();
      if (chain_len == 0) {
        chain_start_level = level_idx;
        chain_start_ts = static_cast<double>(total_cycles);
      }
      ++chain_len;
    } else if (level_spans) {
      flush_chain();  // a wide level ends any run of narrow levels
      run.span(level_ctx, "level", "sim/levels", static_cast<double>(total_cycles),
               static_cast<double>(level_wall),
               {{"level", static_cast<double>(level_idx)},
                {"ops", static_cast<double>(level.size())},
                {"core_cycles", static_cast<double>(level_core_cycles)}});
    }
    total_cycles += level_wall;
  };

  for (std::size_t l = 0; l < levels_done; ++l) run_level(l, /*folded=*/true);
  run.start(static_cast<double>(total_cycles));
  for (std::size_t l = levels_done; l < levels.size(); ++l) {
    if (const StopReason why = run.poll(); why != StopReason::None) {
      flush_chain();
      if (timeline) emit_timeline(sched, *timeline);
      run.stop(why, static_cast<double>(total_cycles));
    }
    run_level(l, /*folded=*/false);
    if (run.step_done()) run.checkpoint(static_cast<double>(total_cycles));
  }

  // Key material is prefetched with double buffering across the whole graph
  // (the on-chip scheduler knows the op stream in advance), so HBM streaming
  // overlaps *globally* with compute; only the excess stalls.
  const double total_hbm_bytes = static_cast<double>(costs.hbm_bytes());
  const std::uint64_t hbm_cycles =
      static_cast<std::uint64_t>(std::ceil(total_hbm_bytes / hbm_bpc));
  std::uint64_t stall_cycles = 0;
  if (hbm_cycles > total_cycles) {
    stall_cycles = hbm_cycles - total_cycles;
    total_cycles = hbm_cycles;
  }
  if (run.traces(obs::TraceDetail::Phases) && stall_cycles > 0) {
    run.span(obs::child_context(run.context(), "hbm-stall", 0), "hbm-stall",
             "sim/levels", static_cast<double>(total_cycles - stall_cycles),
             static_cast<double>(stall_cycles),
             {{"cycles", static_cast<double>(stall_cycles)}});
  }
  flush_chain();
  run.complete(static_cast<double>(total_cycles));

  // Totals and derived rates into the registry; finalize() projects them onto
  // the legacy aggregate fields.
  costs.add_counters(reg);
  reg.add(metrics::kCycles, total_cycles);
  reg.add(metrics::kStall, stall_cycles, {{"cause", "hbm"}});
  reg.add(metrics::kTransposeCycles, total_transpose);
  const double time_us = static_cast<double>(total_cycles) / (cfg.freq_ghz * 1e3);
  reg.set_gauge(metrics::kTimeUs, time_us);
  const double peak = static_cast<double>(cfg.peak_lanes());
  reg.set_gauge(metrics::kUtilization,
                total_cycles == 0
                    ? 0.0
                    : static_cast<double>(costs.busy_lanes()) /
                          (peak * static_cast<double>(total_cycles)));
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    const char* tag = class_tag(static_cast<OpClass>(c));
    const std::uint64_t busy = costs.class_busy_lanes(c);
    reg.add(metrics::kCycles, class_wall[c], {{"class", tag}});
    reg.add(metrics::kBusyLaneCycles, busy, {{"class", tag}});
    reg.set_gauge(metrics::kUtilization,
                  class_wall[c] == 0
                      ? 0.0
                      : static_cast<double>(busy) /
                            (peak * static_cast<double>(class_wall[c])),
                  {{"class", tag}});
  }
  result.finalize();
  // After finalize: the profiles are side-channel views, never part of the
  // registry the bit-identity checks compare.
  if (record_ops || record_levels) {
    sched.complete = true;
    sched.end_cycles = total_cycles;
    sched.hbm_cycles = hbm_cycles;
    sched.stall_cycles = stall_cycles;
    observe(sched, timeline, profiler, mem_profiler, result);
  }
  return result;
}

}  // namespace alchemist::sim
