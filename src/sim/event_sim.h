// Discrete-event simulator — the fine-grained cross-check for the analytical
// (ASAP-level) Alchemist model.
//
// Ops become ready the moment their dependencies complete (no level
// barriers). Running ops share the 2048 cores work-conservingly (an op can
// absorb the whole machine: its Meta-OP batches are wide) and share the HBM
// channel the same way; an op completes when both its compute work and its
// key streaming are done. Events are op completions.
//
// Because the event model removes the level barriers, its cycle count is a
// lower bound on the analytical model's; tests pin the two within a small
// factor and above the absolute lower bound (work/cores, bytes/bandwidth).
//
// This engine is the EqualShare step policy of the one Alchemist driver (see
// sim/alchemist_sim.h, which also describes resume, stops, faults and
// observers): a step is one completion interval, and the ops are costed in
// graph index order, which is therefore its fault sampling order. For the
// observers it records each op's ready, compute-done and retirement times,
// its key-fetch window and the order the ops retired in, and every
// interval's delivered, reduction and scratchpad core-cycles (core sharing
// is uniform across units, so one fractional utilization profile covers the
// machine).
#pragma once

#include "arch/config.h"
#include "fault/fault_model.h"
#include "metaop/op_graph.h"
#include "obs/timeline.h"
#include "sim/result.h"
#include "sim/mem_profiler.h"
#include "sim/sim_control.h"
#include "sim/unit_profiler.h"

namespace alchemist::sim {

SimResult simulate_alchemist_events(const metaop::OpGraph& graph,
                                    const arch::ArchConfig& config,
                                    obs::Timeline* timeline = nullptr,
                                    fault::FaultModel* fault_model = nullptr,
                                    SimControl* control = nullptr,
                                    UnitProfiler* profiler = nullptr,
                                    MemProfiler* mem_profiler = nullptr);

// Time-sharing scheduler (§5.4): interleave independent operation streams
// into one graph so compute of one stream overlaps key streaming of another.
metaop::OpGraph merge_graphs(const std::vector<metaop::OpGraph>& graphs,
                             const std::string& name);

}  // namespace alchemist::sim
