// Cycle-level simulator of the Alchemist accelerator — the level engine.
//
// Model (matching §5 of the paper):
//  * An op graph is executed level by level (ASAP schedule over the DAG).
//  * Every high-level op lowers to Meta-OP batches; a Meta-OP occupies one
//    core for n + 2 cycles. Batches spread over all num_units *
//    cores_per_unit cores (slot partitioning makes units independent, so the
//    distribution is uniform; a partially-filled last wave still costs a full
//    n + 2 window — the "tail" loss).
//  * 4-step NTTs pay one global transpose through the transpose register
//    file, which moves num_units * lanes words per cycle and is serialized
//    between the two NTT phases.
//  * Off-chip traffic (evk streaming) is prefetched with double buffering
//    across the whole graph: the run's wall time is max(compute, HBM), and
//    the excess is a memory stall.
//
// One driver, two step policies. Both Alchemist engines are one driver
// (sim/alchemist_sim.cpp) run with a different step policy:
//  * LevelBarrier — this engine: a step is one ASAP level;
//  * EqualShare — the event engine (sim/event_sim.h): a step is one
//    completion interval.
// A policy decides its engine and accelerator names, when it costs each op
// (its fault sampling order: ASAP-level order here, graph order in the event
// engine), which parts of the sim::Schedule it records for the attached
// observers, and its end-of-run totals. The driver owns everything else,
// once: the fault setup, RunControl (sim/sim_control.h) with the resume
// replay, stop polling and checkpoints, the registry (sim/cost_pass.h's work
// and transpose counters plus cycles, stall, time and utilization, overall
// and per op class), and the observers. A Timeline, a UnitProfiler
// (utilization.v1) and a MemProfiler (memory.v1) are each one function of
// the run's Schedule (sim/schedule.h); none of them changes the returned
// SimResult, and a run traces if and only if a Timeline is passed.
//
// Fault modeling: an optional fault::FaultModel degrades the machine
// (permanent unit masks re-partition the slot stripe over the healthy units,
// DMR halves effective cores) and injects seed-deterministic transient faults
// whose mitigation cost is charged per op and counted under fault.* metrics.
// A model with zero rates, no mask and a non-DMR policy — or no model at all
// — leaves the results bit-identical to the fault-free simulator.
//
// Checkpoints are a step count (sim/checkpoint.h). A resumed run restarts
// the fault RNG at its seed, re-runs the cost pass, and replays the completed
// steps silently: they are scheduled and recorded, but they emit no spans
// and count no steps, and the Timeline skips them. Its SimResult,
// utilization.v1 and memory.v1 are bit-identical to an uninterrupted run's.
// A stopped run writes the steps it executed to its Timeline before it
// throws.
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

SimResult simulate_alchemist(const metaop::OpGraph& graph,
                             const arch::ArchConfig& config,
                             obs::Timeline* timeline = nullptr,
                             fault::FaultModel* fault_model = nullptr,
                             SimControl* control = nullptr,
                             UnitProfiler* profiler = nullptr,
                             MemProfiler* mem_profiler = nullptr);

}  // namespace alchemist::sim
