#include "sim/cost_pass.h"

#include <algorithm>
#include <cmath>

#include "metaop/lowering.h"
#include "sim/result.h"

namespace alchemist::sim {

CostPass::CostPass(const metaop::OpGraph& graph, const arch::ArchConfig& cfg,
                   fault::FaultModel* fault)
    : graph_(graph),
      cfg_(cfg),
      fault_(fault),
      transpose_words_per_cycle_(static_cast<double>(cfg.num_units * cfg.lanes)) {}

OpCost CostPass::cost(std::size_t idx) {
  const metaop::HighOp& op = graph_.ops[idx];
  const metaop::MetaOpStream stream = metaop::lower(op);
  OpCost c;
  c.cls = metaop::class_of(op.kind);
  c.core_cycles = stream.core_cycles();
  for (const metaop::MetaOpBatch& b : stream.batches) {
    c.busy_lanes += b.count * cfg_.lanes * (b.n + 2);
  }
  c.meta_ops = stream.meta_op_count();
  c.mults = stream.mult_count();
  c.batches = stream.batches.size();
  c.reduction_share = c.core_cycles > 0 ? 2.0 * static_cast<double>(c.meta_ops) /
                                              static_cast<double>(c.core_cycles)
                                        : 0.0;
  if (fault_) {
    // Degraded stripe: slot-partitioned work inflates by the padding of
    // ceil(N / healthy_units) striping (the masked units' share must be
    // re-homed, and the tail stripe is padded).
    const double pad = fault_->slot_padding_factor(op.n);
    if (pad > 1.0) {
      c.core_cycles = static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(c.core_cycles) * pad));
    }
    c.faults = fault_->sample_op(c.core_cycles, c.busy_lanes, op.hbm_bytes);
    c.retry_cycles =
        price_faults(c.faults, c.core_cycles / std::max<std::size_t>(c.batches, 1));
  }
  // 4-step NTT: one global transpose between the two phases.
  if (op.kind == metaop::OpKind::Ntt || op.kind == metaop::OpKind::Intt) {
    const double words = static_cast<double>(op.n) *
                         static_cast<double>(std::max<std::size_t>(op.channels, 1));
    c.transpose = words / transpose_words_per_cycle_ / 2.0;
  }
  // The counter rounds each op's charge up, as the level engine's walls do;
  // the event engine schedules the unrounded charge.
  transpose_cycles_ += static_cast<std::uint64_t>(std::ceil(c.transpose));
  ++ops_;
  mults_ += c.mults;
  meta_ops_ += c.meta_ops;
  hbm_bytes_ += op.hbm_bytes;
  busy_lanes_ += c.busy_lanes;
  ++class_ops_[static_cast<std::size_t>(c.cls)];
  class_busy_lanes_[static_cast<std::size_t>(c.cls)] += c.busy_lanes;
  return c;
}

// Price one op's transient faults under the model's policy. `batch_cost` is
// the core-cycle cost of the affected Meta-OP batch (the re-execution
// granule). Returns the extra core-cycles charged to the op.
std::uint64_t CostPass::price_faults(const fault::OpFaults& faults,
                                     std::uint64_t batch_cost) {
  faults_.compute += faults.compute;
  faults_.sram += faults.sram;
  faults_.hbm += faults.hbm;
  const std::uint64_t n_faults = faults.total();
  if (n_faults == 0) return 0;
  const fault::FaultConfig& fc = fault_->config();
  std::uint64_t extra = 0;
  switch (fc.policy) {
    case fault::Policy::None:
      // Undetected: the op completes on time with a corrupted output.
      ++faults_.corrupted_ops;
      break;
    case fault::Policy::DetectRetry: {
      // Each detected fault re-executes the affected batch; the re-issue
      // window doubles per successive retry within the op (flush, refetch,
      // re-dispatch compound). Beyond max_retries the op is unrecoverable.
      const std::uint64_t attempts = std::min<std::uint64_t>(n_faults, fc.max_retries);
      for (std::uint64_t a = 0; a < attempts; ++a) extra += batch_cost << a;
      faults_.retries += attempts;
      faults_.retry_cycles += extra;
      if (n_faults > fc.max_retries) ++faults_.corrupted_ops;
      break;
    }
    case fault::Policy::Dmr:
      // The shadow core detects the mismatch immediately; one clean
      // re-execution of the batch corrects each fault.
      extra = n_faults * batch_cost;
      faults_.dmr_corrections += n_faults;
      faults_.retry_cycles += extra;
      break;
  }
  return extra;
}

void CostPass::add_counters(obs::Registry& reg) const {
  if (ops_ > 0) {
    reg.add(metrics::kMults, mults_, {{"lazy", "true"}});
    reg.add(metrics::kOps, ops_);
    for (std::size_t k = 0; k < metaop::kNumOpClasses; ++k) {
      if (class_ops_[k] == 0) continue;
      reg.add(metrics::kOps, class_ops_[k],
              {{"class", metaop::class_tag(static_cast<metaop::OpClass>(k))}});
    }
    reg.add(metrics::kMetaOps, meta_ops_);
    reg.add(metrics::kHbmBytes, hbm_bytes_);
    reg.add(metrics::kBusyLaneCycles, busy_lanes_);
  }
  reg.add(metrics::kTransposeCycles, transpose_cycles_);
  if (fault_ == nullptr) return;
  namespace fm = fault::metrics;
  reg.add(fm::kInjected, faults_.compute + faults_.sram + faults_.hbm);
  reg.add(fm::kInjected, faults_.compute, {{"domain", "compute"}});
  reg.add(fm::kInjected, faults_.sram, {{"domain", "sram"}});
  reg.add(fm::kInjected, faults_.hbm, {{"domain", "hbm"}});
  reg.add(fm::kRetries, faults_.retries);
  reg.add(fm::kRetryCycles, faults_.retry_cycles);
  reg.add(fm::kCorruptedOps, faults_.corrupted_ops);
  reg.add(fm::kDmrCorrections, faults_.dmr_corrections);
  reg.add(fm::kMaskedUnits, fault_->masked_count());
}

}  // namespace alchemist::sim
