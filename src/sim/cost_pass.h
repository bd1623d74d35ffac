// The per-op cost pass shared by both Alchemist engines.
//
// Every op of a graph is lowered to its Meta-OP stream exactly once, here,
// and everything either engine charges per op is derived from that stream in
// this one place: degraded-stripe padding, transient-fault sampling and
// policy pricing, busy lanes, Meta-OP and multiplication counts, and the
// serialized half of the 4-step NTT transpose. The engines only schedule the
// resulting costs — the level engine as ASAP levels, the event engine as
// work-conserving completion intervals.
//
// The run's work counters (sim.ops, sim.metaops, sim.mults, sim.hbm.bytes,
// sim.busy_lane_cycles, sim.transpose.cycles and, with a fault model, the
// fault.* family) are summed over the ops and added to the registry once per
// run. The transpose total rounds each op's charge up to whole cycles, as the
// level engine's walls do.
//
// Faults are sampled in the order the engine costs its ops: the level engine
// walks its ASAP levels, the event engine the graph index. A seed therefore
// reproduces each engine's faulted run bit for bit, and a resumed run — which
// restarts the fault RNG at its seed and re-costs every op — draws exactly the
// transients of the uninterrupted one.
#pragma once

#include <array>
#include <cstdint>

#include "arch/config.h"
#include "fault/fault_model.h"
#include "metaop/metaop.h"
#include "metaop/op_graph.h"
#include "obs/registry.h"

namespace alchemist::sim {

struct OpCost {
  metaop::OpClass cls = metaop::OpClass::Elementwise;
  std::uint64_t core_cycles = 0;   // Meta-OP work after stripe padding
  std::uint64_t retry_cycles = 0;  // fault mitigation re-execution
  std::uint64_t busy_lanes = 0;    // lane-cycles of Meta-OP work
  std::uint64_t meta_ops = 0;
  std::uint64_t mults = 0;
  std::size_t batches = 0;
  // Share of the stream's core-cycles spent in 2-cycle reduction tails.
  // Padding and retries replay whole windows, so the ratio carries over.
  double reduction_share = 0;
  // Serialized transpose half in machine cycles, unrounded: chunks of later
  // channels transpose while earlier ones run phase 2, hiding the other half.
  double transpose = 0;
  fault::OpFaults faults;

  std::uint64_t work() const { return core_cycles + retry_cycles; }
};

// Costs the ops of one run, one op per call, in the order the engine asks for
// them — which is therefore the fault sampling order — and owns the run's
// work totals.
class CostPass {
 public:
  // `cfg` is the (already fault-degraded) machine; `fault` may be null.
  CostPass(const metaop::OpGraph& graph, const arch::ArchConfig& cfg,
           fault::FaultModel* fault);

  // Lower, pad, sample and price op `idx`, folding it into the run totals.
  // Call once per op.
  OpCost cost(std::size_t idx);

  // Adds the run's work counters (and fault.* with a fault model) to `reg`;
  // call once, after every op was costed.
  void add_counters(obs::Registry& reg) const;

  std::uint64_t hbm_bytes() const { return hbm_bytes_; }
  std::uint64_t busy_lanes() const { return busy_lanes_; }
  std::uint64_t class_busy_lanes(std::size_t cls) const {
    return class_busy_lanes_[cls];
  }

 private:
  struct FaultTotals {
    std::uint64_t compute = 0;          // injected transients by domain
    std::uint64_t sram = 0;
    std::uint64_t hbm = 0;
    std::uint64_t retries = 0;          // detect-retry re-executions
    std::uint64_t retry_cycles = 0;     // core-cycles burned re-executing
    std::uint64_t corrupted_ops = 0;    // ops whose output stays corrupted
    std::uint64_t dmr_corrections = 0;  // mismatches fixed by the shadow core
  };
  std::uint64_t price_faults(const fault::OpFaults& faults,
                             std::uint64_t batch_cost);

  const metaop::OpGraph& graph_;
  const arch::ArchConfig& cfg_;
  fault::FaultModel* fault_;
  double transpose_words_per_cycle_;
  std::uint64_t ops_ = 0, mults_ = 0, meta_ops_ = 0, hbm_bytes_ = 0,
                busy_lanes_ = 0, transpose_cycles_ = 0;
  std::array<std::uint64_t, metaop::kNumOpClasses> class_ops_{};
  std::array<std::uint64_t, metaop::kNumOpClasses> class_busy_lanes_{};
  FaultTotals faults_;
};

}  // namespace alchemist::sim
