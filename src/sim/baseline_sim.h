// Analytical model of modularized (operator-spatial-multiplexed) baseline
// accelerators: dedicated NTTU / BconvU / element-wise engines.
//
// The same op graph Alchemist runs is summed per dedicated engine, and each
// engine streams its own operator class, pipelined over the whole graph: the
// run's wall time is the busiest engine's work over its peak, or the HBM
// stream if that is longer. It is one closed form, with no steps, so it has
// no checkpoints, cost pass or observers. Because real FHE levels are
// dominated by one class at a time, the other engines idle — this is exactly
// the utilization mismatch of Fig. 1 / Fig. 7(b) that motivates the unified
// design. Baselines execute the original (eagerly reduced) multiplication
// counts; the Meta-OP lazy-reduction saving is Alchemist-specific.
#pragma once

#include "arch/baselines.h"
#include "metaop/op_graph.h"
#include "sim/result.h"

namespace alchemist::sim {

SimResult simulate_modular(const metaop::OpGraph& graph,
                           const arch::AcceleratorSpec& spec);

}  // namespace alchemist::sim
