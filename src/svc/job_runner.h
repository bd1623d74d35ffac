// Thread-pool simulation service: the host-side robustness layer the
// accelerator serving stacks (ARK, BASALISC) assume, reproduced in software.
//
// N worker threads drain per-tenant fair queues behind a typed admission
// pipeline:
//
//   submit() ─▶ [breaker?] ─▶ [quota?] ─▶ [overload?] ─▶ fair queue ─▶ worker ─▶ attempt loop
//               │ open         │ over       │ shedding     (DRR over           │
//               ▼              ▼            ▼            per-tenant lanes)     ├─ Completed [Degraded]
//           CircuitOpen   QuotaExceeded    Shed                                ├─ retry (backoff,
//                                                                              │   re-rolled fault seed)
//                                                                              ├─ Failed (budget exhausted)
//                                                                              ├─ Cancelled      ┐ checkpoint
//                                                                              └─ DeadlineExpired┘ captured
//
// * Backpressure: the queue never grows past `queue_capacity`; overload is a
//   typed Shed rejection, not latency collapse.
// * Multi-tenant admission (svc/admission.h): JobSpec::tenant selects a
//   TenantPolicy (token-bucket rate limit, concurrency quota, backlog cap,
//   DRR weight) from RunnerOptions::tenants; quota violations terminate in
//   QuotaExceeded, distinct from capacity Shed, so clients can tell "slow
//   down" from "service is full".
// * Fair queueing (svc/fair_queue.h): per-tenant sub-queues drained by
//   deficit round robin — a bursty tenant queues behind its own backlog
//   instead of everyone's. Untenanted jobs share one lane, which degenerates
//   to the old FIFO.
// * Overload ladder (svc/overload.h): CoDel-style queue-sojourn tracking.
//   Past the target delay, degradable jobs run at reduced detail (Degraded
//   flag on the handle, bit-identical simulated outcome); past the shed
//   threshold, new arrivals shed (reason "overload") until the standing
//   queue drains. Queued work is never dropped, and Shed never outlives the
//   backlog: an arrival that finds the queue empty counts as a zero-delay
//   observation and resets the ladder, so recovery does not depend on a
//   further dequeue.
// * Deadlines: wall-clock deadlines ride the job's CancelToken; deterministic
//   step budgets (JobSpec::max_steps) expire the same way. Both leave the
//   job's last checkpoint on the handle for resumption.
// * Retries: fault-corrupted runs are re-executed up to max_attempts with
//   exponential backoff (common/backoff.h, deterministic per-job jitter) and
//   a fresh per-attempt fault seed.
// * Circuit breaking: consecutive failures of one workload class fast-fail
//   subsequent submissions of that class until a cooldown + half-open probe
//   (svc/circuit_breaker.h).
// * Observability: svc.* counters and gauges (queue depth, terminal-state
//   partition) exported as an obs::Registry snapshot, together with the
//   substrate.* counters of the shared compute pool. Admitted jobs
//   additionally record svc.latency.{queue,run,total,sim}_us histograms
//   (aggregate and per workload class); snapshots derive .p50/.p95/.p99
//   gauges from them. Job lifecycle spans go to RunnerOptions::trace.
//   status_json() is the machine-readable live view (/statusz): breaker
//   states, queue occupancy, pool width, substrate.* activity.
// * Intra-job parallelism: functional kernels running inside a job fan out on
//   the process-wide ThreadPool (common/thread_pool.h), which all workers
//   share. Nested fan-outs run inline on their worker and callers lend their
//   own thread, so J job workers over a P-thread pool never run more than
//   J + P - 1 compute threads — job-level and kernel-level parallelism
//   compose without oversubscription. ALCHEMIST_THREADS=1 (or
//   ThreadPool::set_threads(1)) collapses every kernel to the sequential
//   path; results are bit-identical either way.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "obs/log.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "svc/admission.h"
#include "svc/circuit_breaker.h"
#include "svc/fair_queue.h"
#include "svc/job.h"
#include "svc/overload.h"

namespace alchemist::svc {

struct RunnerOptions {
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  // Retry pacing; each job derives a deterministic jitter stream from
  // backoff.seed and its submission sequence number.
  BackoffConfig backoff{};
  // Circuit breaker per (tenant, workload class): consecutive failures to
  // open, and the open period before a half-open probe. threshold 0 disables
  // breaking. Untenanted jobs key the breaker by class alone, so one
  // tenant's failing workload never fast-fails another tenant's.
  std::size_t breaker_threshold = 5;
  std::chrono::milliseconds breaker_cooldown{100};
  // Per-tenant admission quotas and fair-queue weights (svc/admission.h).
  // The default table is unlimited for every tenant — tenancy is opt-in.
  TenantPolicyTable tenants{};
  // Adaptive overload control (svc/overload.h). Disabled by default.
  OverloadConfig overload{};
  // Start with workers parked (submissions queue up but nothing runs) until
  // set_paused(false) — deterministic queue-pressure tests rely on this.
  bool start_paused = false;
  // Distributed tracing (obs/trace.h): with a sink attached the runner mints
  // a TraceContext per submitted job (trace_seed ^ submission sequence, so
  // ids are reproducible across runs and worker counts) and records job /
  // queue / attempt / backoff spans, propagates the context into both
  // simulator engines (trace_detail bounds their span volume) and exposes it
  // to ThreadPool fan-outs via the ambient thread-local. Null = tracing off:
  // the whole path reduces to pointer tests, no allocation. Not owned; must
  // outlive the runner.
  obs::TraceSink* trace = nullptr;
  obs::TraceDetail trace_detail = obs::TraceDetail::Phases;
  std::uint64_t trace_seed = 0xa1c4'e015'7f1a'6e57ull;
  // Structured flight recorder (obs/log.h): job lifecycle events (admitted /
  // shed / retry / terminal) with the job's trace id attached. Null = off.
  obs::EventLog* log = nullptr;
};

class JobRunner {
 public:
  explicit JobRunner(RunnerOptions opts = {});
  // Equivalent to shutdown().
  ~JobRunner();

  // Stops accepting (subsequent submissions shed with reason "shutdown"),
  // cancels queued and running jobs, joins the workers. Every job still
  // reaches a terminal state. Idempotent and safe to race with concurrent
  // submit() calls from other threads — the accounting invariant
  // (terminal-state counters partition svc.submitted) holds throughout.
  void shutdown();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  // Admission control; never blocks and never throws on overload. The
  // returned handle is already terminal (Shed / CircuitOpen) when the job
  // was rejected. Throws std::invalid_argument only for malformed specs
  // (null graph).
  JobPtr submit(JobSpec spec);

  // Block until every admitted job has reached a terminal state.
  void drain();

  // Park/unpark the worker threads (see RunnerOptions::start_paused).
  void set_paused(bool paused);

  // Point-in-time copy of the svc.* registry, including queue-depth gauges,
  // the latency histograms and their derived .p50/.p95/.p99 gauges.
  obs::Registry snapshot() const;

  // Live JSON for the /statusz introspection endpoint: worker-pool and queue
  // occupancy, per-class breaker states, svc.* counters and substrate.*
  // activity. Thread-safe; poll-driven (computed on call, nothing cached).
  std::string status_json() const;

  // Per-(tenant, class) breaker states, for introspection and tests. Keys
  // are "class" for untenanted jobs and "tenant/class" otherwise.
  std::map<std::string, CircuitBreaker::State> breaker_states() const;

  // Overload ladder level currently in force (svc/overload.h).
  OverloadController::Level overload_level() const;

  const RunnerOptions& options() const { return opts_; }

 private:
  void worker_loop(std::size_t worker_id);
  void run_job(const JobPtr& job, bool degraded);
  // Terminal transition: updates the svc.* counters, latency histograms and
  // workload-class breaker first, then publishes the state to the handle (so
  // a caller woken by Job::wait() always sees itself accounted).
  void finish(const JobPtr& job, JobState state, std::string error,
              sim::SimResult result, sim::Checkpoint checkpoint,
              std::size_t attempts);
  // The accounting half of finish(); caller holds mu_.
  void record_terminal(const Job& job, JobState state, std::size_t attempts,
                       bool has_checkpoint,
                       std::chrono::steady_clock::time_point now,
                       double sim_us);
  // Fold a completed job's memory.v1 profile into the runner registry as
  // sim.mem.* series; caller holds mu_. Only ever called for mem-profiled
  // jobs, so an unprofiled deployment's snapshot stays byte-identical.
  void fold_mem_profile(const obs::MemoryProfile& m);
  // Breaker key: "class" untenanted, "tenant/class" otherwise.
  static std::string breaker_key(const std::string& tenant,
                                 const std::string& workload_class) {
    return tenant.empty() ? workload_class : tenant + "/" + workload_class;
  }

  // Metric label for a tenant: names absent from the policy table coalesce
  // to "_other", so per-tenant series cardinality is bounded by
  // configuration, never by the tenant strings clients invent. Caller holds
  // mu_ (reads only immutable opts_, but keeps the discipline uniform).
  const std::string& metric_tenant(const std::string& tenant) const;
  // Drop a (tenant x class) breaker again when it is indistinguishable from
  // a fresh one and its tenant is not in the policy table; caller holds mu_.
  void maybe_evict_breaker(
      const std::map<std::string, CircuitBreaker>::iterator& it,
      const std::string& tenant);

  RunnerOptions opts_;

  mutable std::mutex mu_;  // queue, breakers, admission, stats, flags
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  FairQueue queue_;
  Admission admission_;
  OverloadController overload_;
  std::vector<Job*> running_;  // jobs currently on a worker (for shutdown cancel)
  std::map<std::string, CircuitBreaker> breakers_;
  obs::Registry reg_;
  std::size_t peak_depth_ = 0;
  std::uint64_t seq_ = 0;
  bool paused_ = false;
  bool stopping_ = false;

  std::mutex join_mu_;  // serializes the one-time worker join in shutdown()
  bool joined_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace alchemist::svc
