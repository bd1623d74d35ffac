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
//  * Off-chip traffic (evk streaming) is double-buffered against compute:
//    a level's wall time is max(compute, HBM); the excess is a memory stall.
//
// One simulator core, two schedulers. This engine and the event engine
// (sim/event_sim.h) share everything but the schedule:
//  * sim/cost_pass.h prices every op once — lowering, fault-degraded stripe
//    padding, transient-fault sampling and retry pricing, busy lanes,
//    Meta-OP/mult counts, transpose — and adds the run's work counters to
//    the registry. This engine costs ops in ASAP-level order, which is
//    therefore its fault sampling order.
//  * RunControl (sim/sim_control.h) owns stop polling, checkpoint validation
//    and writing, and the distributed-tracing spans. A step here is one ASAP
//    level.
//  * Observers read the run's sim::Schedule (sim/schedule.h) once it is
//    done: this engine records each op's slot in its level's tiling cursor
//    and one frame per level, and a Timeline, a UnitProfiler
//    (utilization.v1) and a MemProfiler (memory.v1) are each one function of
//    that record. None of them changes the returned SimResult, and a run with
//    no observer records no entries. A run traces if and only if a Timeline
//    is passed.
//
// Fault modeling: an optional fault::FaultModel degrades the machine
// (permanent unit masks re-partition the slot stripe over the healthy units,
// DMR halves effective cores) and injects seed-deterministic transient faults
// whose mitigation cost is charged per op and counted under fault.* metrics.
// A model with zero rates, no mask and a non-DMR policy — or no model at all
// — leaves the results bit-identical to the fault-free simulator.
//
// Checkpoints are a step count (sim/checkpoint.h): the number of completed
// levels. A resumed run restarts the fault RNG at its seed, re-runs the cost
// pass over every op, and folds the completed levels silently: they are
// scheduled and recorded, but they emit no spans and count no steps, and the
// Timeline skips them. Its SimResult, utilization.v1 and memory.v1 are
// bit-identical to an uninterrupted run's. A stopped run writes the levels it
// executed to its Timeline before it throws. The event engine resumes and
// stops the same way.
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
