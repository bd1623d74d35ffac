// The schedule the Alchemist driver ran, and the observers that read it.
//
// The one driver (sim/alchemist_sim.h) runs a step policy, and the policy
// fills one Schedule as it steps, but only when an observer is attached: a
// Timeline, a UnitProfiler or a MemProfiler. observe() then runs each
// attached observer as one function of the Schedule — the Timeline emitter,
// UnitProfiler::profile() and MemProfiler::profile() — so a policy only
// schedules, and a new policy reaches all three observers by filling a
// Schedule. A policy records only the parts its observers read: the op
// records for a Timeline or a MemProfiler (the event policy also for per-op
// spans), the level frames for a Timeline or a UnitProfiler, and the
// completion intervals for a UnitProfiler.
//
// A Schedule holds:
//  * one ScheduledOp per op in HBM-prefetch order (LevelBarrier's ASAP level
//    order, EqualShare's graph order), with the step it retired in, its
//    start, compute end and retirement cycles and its key-fetch window, plus
//    each op's OpCost when a Timeline will read it (the costs are most of a
//    schedule's bytes, and only the trace shows them per op);
//  * LevelBarrier's level frames, or EqualShare's completion intervals (with
//    the delivered core-cycles the UnitProfiler splits);
//  * the end cycle and, for LevelBarrier, the HBM stall.
//
// A resumed run records every step, also those it replays silently, and
// sets first_step to the checkpoint's step: the profiles cover the whole run,
// and the Timeline emitter skips the steps before first_step. A stopped run
// passes its partial schedule to observe() before it throws: its trace keeps
// the steps it executed, and the profilers, which read only completed
// schedules, skip it.
//
// Track id space of the Timeline:
//   class c, row r  ->  tid = c * kRowsPerClass + r   ("ntt/0", "bconv/1", ...)
//   HBM channel     ->  kHbmTid                        ("hbm")
//   transpose RF    ->  kTransposeTid                  ("transpose")
//   scheduler       ->  kSchedulerTid                  ("scheduler") — level
//                       frames of the analytical model, stall frames
//   fault model     ->  kFaultTid                      ("fault") — injected
//                       transients, retry re-executions, DMR corrections
//   unit profiler   ->  kUtilTidBase + unit            ("util/unit000", ...) —
//                       per-unit occupancy counter tracks ("C" events)
//   mem profiler    ->  kMemBwTid, kMemScratchTid      ("mem/bw",
//                       "mem/scratchpad") — epoch counter tracks
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/config.h"
#include "metaop/metaop.h"
#include "metaop/op_graph.h"
#include "obs/timeline.h"
#include "sim/cost_pass.h"

namespace alchemist::sim {

inline constexpr std::uint32_t kRowsPerClass = 64;
inline constexpr std::uint32_t kHbmTid =
    static_cast<std::uint32_t>(metaop::kNumOpClasses) * kRowsPerClass;
inline constexpr std::uint32_t kTransposeTid = kHbmTid + 1;
inline constexpr std::uint32_t kSchedulerTid = kHbmTid + 2;
inline constexpr std::uint32_t kFaultTid = kHbmTid + 3;
inline constexpr std::uint32_t kUtilTidBase = kHbmTid + 4;
// Offset leaves room for kUtilTidBase + unit tids.
inline constexpr std::uint32_t kMemBwTid = kUtilTidBase + 65536;
inline constexpr std::uint32_t kMemScratchTid = kMemBwTid + 1;

// HBM streams the ops' key material back to back, in prefetch order, at full
// bandwidth: each fetch window starts where the previous one ended.
class FetchStream {
 public:
  explicit FetchStream(double bytes_per_cycle) : bytes_per_cycle_(bytes_per_cycle) {}
  // [start, end) cycles of the next op's fetch.
  std::pair<double, double> next(std::uint64_t bytes) {
    const double start = fetched_ / bytes_per_cycle_;
    fetched_ += static_cast<double>(bytes);
    return {start, fetched_ / bytes_per_cycle_};
  }

 private:
  double bytes_per_cycle_;
  double fetched_ = 0;
};

struct ScheduledOp {
  std::uint32_t op = 0;     // graph index
  std::uint32_t step = 0;   // level, or completion interval, it retired in
  double start = 0;         // level: tiling cursor; event: dependencies done
  double compute_end = 0;   // Meta-OP work and transpose done (event: 0 if none)
  double retire = 0;        // left the machine (level: = compute_end; event:
                            // 0 until then, as every interval advances time)
  double fetch_start = 0;   // key material streams over [fetch_start, fetch_end)
  double fetch_end = 0;
};

// Level engine: one ASAP level, its ops contiguous in Schedule::ops.
struct LevelFrame {
  std::uint64_t start = 0;  // cycle
  std::uint64_t wall = 0;   // compute wall + serialized transpose
  std::uint64_t core_cycles = 0;            // work incl. retries
  std::uint64_t reduction_core_cycles = 0;  // 2-cycle Meta-OP tails within it
  std::uint64_t transpose_cycles = 0;
  std::size_t ops = 0;
};

// Event engine: one completion interval and the core-cycles it drained.
struct CompletionInterval {
  double dt = 0;
  double delivered = 0;  // all core-cycles drained
  double reduction = 0;  // of which Meta-OP reduction tails
  double scratch = 0;    // of which transpose traffic
  std::array<double, metaop::kNumOpClasses> class_delivered{};  // non-scratch
  bool compute_live = false;  // false: an HBM-only wait

  // An op of class `cls` drained `d` core-cycles, `scratch_share` of them
  // transpose traffic and `reduction_share` of the rest reduction tails.
  void drain(metaop::OpClass cls, double d, double scratch_share,
             double reduction_share) {
    const double d_scratch = d * scratch_share;
    const double d_compute = d - d_scratch;
    delivered += d;
    scratch += d_scratch;
    reduction += d_compute * reduction_share;
    class_delivered[static_cast<std::size_t>(cls)] += d_compute;
  }
};

struct Schedule {
  const metaop::OpGraph* graph = nullptr;
  arch::ArchConfig cfg;   // the (fault-degraded) machine simulated
  bool event = false;     // level frames if false, completion intervals if true
  std::uint64_t first_step = 0;  // resume step: earlier steps were replayed
  bool with_costs = false;       // keep each op's OpCost (for a Timeline)

  std::vector<ScheduledOp> ops{};            // HBM-prefetch order
  std::vector<OpCost> costs{};               // parallel to ops, if with_costs
  std::vector<LevelFrame> levels{};          // level engine
  std::vector<CompletionInterval> intervals{};  // event engine
  std::vector<std::uint32_t> retired{};      // event engine: ops, retire order
  // Level engine: the run's core-cycles of work per op class.
  std::array<std::uint64_t, metaop::kNumOpClasses> class_core_cycles{};

  bool complete = false;  // the fields below are set
  std::uint64_t end_cycles = 0;
  std::uint64_t stall_cycles = 0;  // level engine: HBM stream's excess over compute

  void add(const ScheduledOp& r, const OpCost& c) {
    ops.push_back(r);
    if (with_costs) costs.push_back(c);
  }
};

class UnitProfiler;
class MemProfiler;
struct SimResult;

// Every attached observer, in one call: the Timeline (op slices, level frames
// and HBM/transpose/fault/stall slices from first_step on), then, for a
// complete schedule only, the whole-run HBM slices and utilization.v1 and
// memory.v1 into `result` (with their counter tracks).
void observe(const Schedule& schedule, obs::Timeline* timeline,
             UnitProfiler* unit, MemProfiler* mem, SimResult& result);

}  // namespace alchemist::sim
