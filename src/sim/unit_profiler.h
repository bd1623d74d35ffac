// UnitProfiler — per-unit cycle attribution (utilization.v1) of a Schedule.
//
// profile() partitions every simulated cycle of every computing unit into the
// utilization.v1 buckets (obs/utilization.h): busy, reduction,
// stall:scratchpad (transpose), stall:dependency (waiting inside the
// schedule), idle (no compute mapped, incl. the trailing HBM drain). It reads
// a completed sim::Schedule (sim/schedule.h) and nothing else, so a profiled
// run returns a bit-identical SimResult (tests pin this), and a resumed run —
// whose schedule also records the steps it replayed — profiles the whole run.
//
// The Schedule's step records decide the mode:
//
//  * Level frames (integer). The pooled-core model spreads a level's W
//    core-cycles uniformly, so unit u receives work_u = W/U + (u < W%U)
//    core-cycles and occupies ceil(work_u/C) cycles of the level's compute
//    wall ceil(W/(U*C)) — never more, since work_u <= ceil(W/U) <=
//    C*ceil(W/(U*C)). The gap to the wall is stall:dependency; the transpose
//    tail stalls every unit (scratchpad). The trailing HBM stall is idle.
//
//  * Completion intervals (fractional). Each interval's delivered core-cycles
//    are split into reduction/scratchpad shares. Core sharing is uniform
//    across units, so one set of double accumulators covers the machine and
//    is integerized per unit via largest-remainder; what the intervals leave
//    unattributed (undersubscribed cores, the final ceil() slack) is
//    stall:dependency.
//
// Either way every unit's buckets sum exactly to the schedule's end cycle.
//
// With a Timeline, a level schedule also yields one counter sample per unit
// per level from the schedule's first_step on, on the kUtilTidBase+unit
// tracks (busy/reduction/stall fractions of the level wall): stacked per-unit
// occupancy charts next to the op rows in Perfetto.
//
// The class has no state: the engines take a UnitProfiler* as the request to
// profile, and fill SimResult::profile through profile().
#pragma once

#include "obs/timeline.h"
#include "obs/utilization.h"
#include "sim/schedule.h"

namespace alchemist::sim {

class UnitProfiler {
 public:
  static void profile(const Schedule& schedule, obs::UtilizationProfile& out,
                      obs::Timeline* timeline = nullptr);
};

}  // namespace alchemist::sim
