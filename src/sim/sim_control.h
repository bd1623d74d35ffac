// Cooperative execution control for the Alchemist simulator.
//
// The one simulation driver (sim/alchemist_sim.h) advances its step policy in
// *steps* — one ASAP level (LevelBarrier), one completion interval
// (EqualShare). A caller-side SimControl gives the serving layer (src/svc)
// three capabilities without preemption:
//
//   * cancellation:  a CancelToken flipped from any thread stops the run at
//     the next step boundary;
//   * deadlines:     either a wall-clock deadline carried by the token or a
//     deterministic per-call step budget (max_steps) — the latter is what the
//     reproducible soak and the checkpoint tests use;
//   * checkpointing: a sim::Checkpoint of the completed step count is written
//     every checkpoint_interval steps and always at the stop point, so an
//     interrupted job can later resume instead of restarting.
//
// Driver-side, one RunControl per run owns all of it: checkpoint validation
// and the fault-model reset on resume, stop and step-budget polling, the
// step cursor and checkpoint writing, and the run's distributed-tracing spans
// (span buffer, checkpoint markers, the terminal "sim" span). The driver asks
// it for resume_step(), replays that many steps silently, then reports each
// executed step; the policies record their level, chain and op spans through
// it.
//
// A stopped run throws CancelledError after publishing the final checkpoint;
// the SimResult of a resumed run is bit-identical to an uninterrupted one
// (pinned by tests/test_sim_control.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "metaop/op_graph.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"

namespace alchemist::sim {

// Fidelity of a run. Full is the default; Reduced is the serving layer's
// graceful-degradation hook: the engine skips the optional bookkeeping that
// costs wall time but never changes the simulated outcome — interval
// checkpoint snapshots are suppressed (the stop-point snapshot still
// happens) and engine span volume clamps to Lifecycle. The SimResult of a
// Reduced run is bit-identical to a Full run of the same job; only the
// observability detail and the wall-clock cost differ.
enum class SimDetail : std::uint8_t { Full, Reduced };

enum class StopReason : std::uint8_t {
  None = 0,
  Cancelled,        // CancelToken::request_cancel()
  DeadlineExpired,  // wall-clock deadline on the token passed
  StepBudget,       // SimControl::max_steps exhausted (deterministic deadline)
};

inline const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::None: return "none";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::DeadlineExpired: return "deadline-expired";
    case StopReason::StepBudget: return "step-budget";
  }
  return "?";
}

// Thread-safe cancellation flag plus optional wall-clock deadline. The
// producing side (JobRunner, a signal handler, a test) flips it; the engines
// poll should_stop() once per step.
class CancelToken {
 public:
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const { return cancelled_.load(std::memory_order_relaxed); }

  // Absolute steady-clock deadline; a zero time_point means "none".
  void set_deadline(std::chrono::steady_clock::time_point tp) {
    deadline_ns_.store(tp.time_since_epoch().count(), std::memory_order_relaxed);
  }
  void clear_deadline() { deadline_ns_.store(0, std::memory_order_relaxed); }

  StopReason should_stop() const {
    if (cancel_requested()) return StopReason::Cancelled;
    const auto ns = deadline_ns_.load(std::memory_order_relaxed);
    if (ns != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >= ns) {
      return StopReason::DeadlineExpired;
    }
    return StopReason::None;
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::chrono::steady_clock::rep> deadline_ns_{0};
};

// Per-run control block handed to the engines. All pointers are borrowed and
// optional; a null/default SimControl is equivalent to no control at all.
struct SimControl {
  CancelToken* cancel = nullptr;
  // Steps this *call* may execute before stopping with StopReason::StepBudget
  // (0 = unlimited). Counts only steps actually executed, so a resumed run
  // gets a fresh budget.
  std::uint64_t max_steps = 0;
  // Snapshot the step count into `checkpoint` every k executed steps (0 =
  // only at the stop point). Ignored when `checkpoint` is null.
  std::uint64_t checkpoint_interval = 0;
  // In: a valid() checkpoint resumes the run from its step (engine,
  // workload, geometry and fault fingerprints must match, else
  // CheckpointError). Out: overwritten with the latest snapshot.
  Checkpoint* checkpoint = nullptr;
  // Distributed tracing (obs/trace.h). When `trace` is attached and
  // `trace_ctx` is valid, the engine records spans under the caller's context
  // — the run itself, scheduler phases, per-op slices, checkpoint markers —
  // stamped in machine cycles so traced runs stay bit-reproducible. Span ids
  // are minted from deterministic ordinals (level/op indices), never from the
  // host clock. Recording must not perturb the SimResult: with `trace` null
  // or the context invalid this is a single pointer test per step.
  obs::TraceSink* trace = nullptr;
  obs::TraceContext trace_ctx{};
  obs::TraceDetail trace_detail = obs::TraceDetail::Phases;
  // Run fidelity (see SimDetail); RunControl applies the downgrade.
  SimDetail detail = SimDetail::Full;
};

// A cooperative stop. The stop-point checkpoint has already been written to
// control->checkpoint (when one was attached) by the time this is thrown.
class CancelledError : public std::runtime_error {
 public:
  CancelledError(StopReason reason, std::uint64_t step)
      : std::runtime_error(std::string("simulation stopped: ") +
                           sim::to_string(reason) + " at step " +
                           std::to_string(step)),
        reason_(reason),
        step_(step) {}

  StopReason reason() const { return reason_; }
  std::uint64_t step() const { return step_; }

 private:
  StopReason reason_;
  std::uint64_t step_;
};

// Driver-side owner of one run's SimControl (null = uncontrolled, untraced).
class RunControl {
 public:
  using NumAttrs = std::vector<std::pair<std::string, double>>;

  // Validates an incoming checkpoint against this run — engine, graph name
  // and op count, sim_fingerprint(config, fault) — and throws CheckpointError
  // on mismatch. Resuming restarts `fault` at its seed: the driver re-runs
  // the cost pass, which redraws the interrupted run's transients.
  RunControl(SimControl* control, const char* engine, const metaop::OpGraph& graph,
             const arch::ArchConfig& config, fault::FaultModel* fault);

  // Steps the resumed checkpoint had completed (0 for a fresh run). The
  // driver replays them silently before start(); they do not count against
  // max_steps.
  std::uint64_t resume_step() const { return resume_step_; }

  // Marks where this call's own execution starts (the terminal span's ts).
  void start(double now) { start_ = now; }

  // Before each step: the reason to stop now, or StopReason::None.
  StopReason poll() const;
  // Publishes the stop-point checkpoint, records the terminal span and
  // throws CancelledError(why, step).
  [[noreturn]] void stop(StopReason why, double now);
  // After each executed step: true when an interval checkpoint is due.
  bool step_done();
  // Snapshots resume_step() + executed steps into control->checkpoint.
  void checkpoint(double now);
  // Terminal span of a run that ran to completion; flushes buffered spans.
  void complete(double now) { finish("completed", now); }

  // Spans: recorded only when tracing at `at_least` detail or finer.
  bool traces(obs::TraceDetail at_least) const {
    return spans_on_ && detail_ >= at_least;
  }
  const obs::TraceContext& context() const { return sim_ctx_; }
  void span(const obs::TraceContext& ctx, std::string name, const char* track,
            double ts, double dur, NumAttrs num_attrs,
            std::vector<std::pair<std::string, std::string>> attrs = {});

 private:
  void finish(const char* outcome, double now);

  std::uint64_t step() const { return resume_step_ + executed_; }

  SimControl* control_;
  const char* engine_;
  std::string workload_;
  std::uint64_t op_count_;
  std::uint64_t fingerprint_;
  std::uint64_t resume_step_ = 0;
  std::uint64_t interval_ = 0;
  std::uint64_t executed_ = 0;
  double start_ = 0;
  bool spans_on_ = false;
  obs::TraceDetail detail_ = obs::TraceDetail::Lifecycle;
  obs::TraceContext sim_ctx_;
  std::uint64_t checkpoints_ = 0;
  std::vector<obs::SpanRecord> spans_;
};

}  // namespace alchemist::sim
