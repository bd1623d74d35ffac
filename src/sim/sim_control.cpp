#include "sim/sim_control.h"

namespace alchemist::sim {

namespace {
// Spans are buffered locally and drained in batches: one sink lock per
// kSpanFlush spans, so concurrent traced jobs do not serialize on the sink.
constexpr std::size_t kSpanFlush = 4096;
}  // namespace

RunControl::RunControl(SimControl* control, const char* engine,
                       const metaop::OpGraph& graph, const arch::ArchConfig& config,
                       fault::FaultModel* fault)
    : control_(control),
      engine_(engine),
      workload_(graph.name),
      op_count_(graph.ops.size()),
      fingerprint_(sim_fingerprint(config, fault)) {
  if (control_ == nullptr) return;
  const bool reduced = control_->detail == SimDetail::Reduced;
  interval_ = control_->checkpoint != nullptr && !reduced
                  ? control_->checkpoint_interval
                  : 0;
  spans_on_ = control_->trace != nullptr && control_->trace_ctx.valid();
  if (spans_on_) {
    detail_ = reduced ? obs::TraceDetail::Lifecycle : control_->trace_detail;
    sim_ctx_ = obs::child_context(control_->trace_ctx, "sim", 0);
  }
  const Checkpoint* cp = control_->checkpoint;
  if (cp == nullptr || !cp->valid()) return;
  const std::string who = std::string(engine_) + " engine: ";
  if (cp->engine != engine_) {
    throw CheckpointError(who + "checkpoint from engine '" + cp->engine + "'");
  }
  if (cp->workload != workload_ || cp->op_count != op_count_) {
    throw CheckpointError(who + "checkpoint belongs to a different graph");
  }
  if (cp->fingerprint != fingerprint_) {
    throw CheckpointError(who + "machine/fault configuration changed");
  }
  resume_step_ = cp->step;
  if (fault != nullptr) fault->reset();
}

StopReason RunControl::poll() const {
  if (control_ == nullptr) return StopReason::None;
  if (control_->cancel != nullptr) {
    const StopReason why = control_->cancel->should_stop();
    if (why != StopReason::None) return why;
  }
  if (control_->max_steps != 0 && executed_ >= control_->max_steps) {
    return StopReason::StepBudget;
  }
  return StopReason::None;
}

void RunControl::stop(StopReason why, double now) {
  checkpoint(now);
  finish(to_string(why), now);
  throw CancelledError(why, step());
}

bool RunControl::step_done() {
  ++executed_;
  return interval_ != 0 && executed_ % interval_ == 0;
}

void RunControl::checkpoint(double now) {
  if (control_ == nullptr || control_->checkpoint == nullptr) return;
  Checkpoint& cp = *control_->checkpoint;
  cp.engine = engine_;
  cp.workload = workload_;
  cp.op_count = op_count_;
  cp.fingerprint = fingerprint_;
  cp.step = step();
  if (spans_on_) {
    span(obs::child_context(sim_ctx_, "checkpoint", checkpoints_++), "checkpoint",
         "sim/checkpoint", now, 0, {{"step", static_cast<double>(cp.step)}});
  }
}

void RunControl::span(const obs::TraceContext& ctx, std::string name,
                      const char* track, double ts, double dur, NumAttrs num_attrs,
                      std::vector<std::pair<std::string, std::string>> attrs) {
  obs::SpanRecord s;
  s.trace_id = ctx.trace_id;
  s.span_id = ctx.span_id;
  s.parent_span = ctx.parent_span;
  s.name = std::move(name);
  s.kind = "sim";
  s.track = track;
  s.clock = obs::SpanClock::Cycles;
  s.ts = ts;
  s.dur = dur;
  s.attrs = std::move(attrs);
  s.num_attrs = std::move(num_attrs);
  spans_.push_back(std::move(s));
  if (spans_.size() >= kSpanFlush) control_->trace->record_batch(spans_);
}

void RunControl::finish(const char* outcome, double now) {
  if (!spans_on_) return;
  span(sim_ctx_, "sim", "sim", start_, now - start_,
       {{"steps", static_cast<double>(executed_)},
        {"resume_step", static_cast<double>(resume_step_)}},
       {{"engine", engine_}, {"workload", workload_}, {"outcome", outcome}});
  control_->trace->record_batch(spans_);
}

}  // namespace alchemist::sim
