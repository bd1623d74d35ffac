// MemProfiler — memory-system attribution (memory.v1) of a Schedule.
//
// profile() turns the engines' single hbm_bytes-per-op accounting into the
// memory.v1 profile (obs/memory.h): bytes attributed to (operand class x op
// class) from the IR's TransferDescs, a key-fetch ledger keyed by key_id with
// re-fetch bytes (the inter-op key-reuse headroom ARK exploits), an epoch-
// bucketed HBM bandwidth-utilization timeline, and a scratchpad-occupancy
// model (capacity from the schedule's ArchConfig, one residency interval per
// fetched working set, exact high-water mark).
//
// It reads a completed sim::Schedule (sim/schedule.h) and nothing else, so a
// profiled run returns a bit-identical SimResult (tests pin this), and a
// resumed run — whose schedule also records the steps it replayed — profiles
// the whole run. Each ScheduledOp, in HBM-prefetch order, carries the fetch
// window the engine's FetchStream gave it: HBM streams the key material back
// to back at full bandwidth. A working set is resident from its fetch start
// until the op has both finished computing and received its keys, and is
// evicted once then; a later fetch of the same key_id is a re-fetch in the
// ledger.
//
// With a Timeline, profile() also emits the mem/bw and mem/scratchpad epoch
// counter tracks.
//
// The class has no state: the engines take a MemProfiler* as the request to
// profile, and fill SimResult::mem_profile through profile().
#pragma once

#include <cstddef>

#include "obs/memory.h"
#include "obs/timeline.h"
#include "sim/schedule.h"

namespace alchemist::sim {

class MemProfiler {
 public:
  // Epoch count of the bandwidth/occupancy timelines in memory.v1.
  static constexpr std::size_t kEpochs = 64;

  static void profile(const Schedule& schedule, obs::MemoryProfile& out,
                      obs::Timeline* timeline = nullptr);
};

}  // namespace alchemist::sim
