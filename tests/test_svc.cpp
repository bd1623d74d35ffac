// The resilient simulation service: deterministic backoff, circuit breaker
// state machine, and the JobRunner's admission / deadline / retry / resume
// semantics, including the terminal-state partition invariant.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "common/backoff.h"
#include "fault/injector.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "sim/alchemist_sim.h"
#include "svc/introspect.h"
#include "svc/job_runner.h"
#include "workloads/ckks_workloads.h"

namespace alchemist {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const metaop::OpGraph> shared_graph(metaop::OpGraph g) {
  return std::make_shared<const metaop::OpGraph>(std::move(g));
}

std::shared_ptr<const metaop::OpGraph> keyswitch_graph() {
  return shared_graph(workloads::build_keyswitch(workloads::CkksWl::paper(16)));
}

// ---------------------------------------------------------------- Backoff --

TEST(Backoff, DeterministicSequence) {
  BackoffConfig cfg;
  Backoff a(cfg), b(cfg);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_us(), b.next_us());
  EXPECT_EQ(a.attempts(), 20u);
  EXPECT_EQ(a.total_us(), b.total_us());

  a.reset();
  Backoff fresh(cfg);
  EXPECT_EQ(a.next_us(), fresh.next_us());
}

TEST(Backoff, GrowsExponentiallyUpToCap) {
  BackoffConfig cfg;
  cfg.base_us = 100;
  cfg.multiplier = 2.0;
  cfg.cap_us = 1000;
  cfg.jitter = 0.0;
  Backoff bo(cfg);
  EXPECT_EQ(bo.next_us(), 100u);
  EXPECT_EQ(bo.next_us(), 200u);
  EXPECT_EQ(bo.next_us(), 400u);
  EXPECT_EQ(bo.next_us(), 800u);
  EXPECT_EQ(bo.next_us(), 1000u);  // capped
  EXPECT_EQ(bo.next_us(), 1000u);
  EXPECT_EQ(bo.total_us(), 100u + 200u + 400u + 800u + 1000u + 1000u);
}

TEST(Backoff, SaturatesAtCapForHugeAttemptCounts) {
  // Regression: base * multiplier^k overflows the double to inf within ~300
  // attempts, and llround of a jittered near-UINT64_MAX cap is UB. Both must
  // saturate instead.
  BackoffConfig cfg;
  cfg.base_us = 100;
  cfg.multiplier = 10.0;
  cfg.cap_us = std::numeric_limits<std::uint64_t>::max();
  cfg.jitter = 0.5;  // jittered cap would land well past 2^63 without the clamp
  Backoff bo(cfg);
  constexpr std::uint64_t kMaxRoundable = 9'000'000'000'000'000'000ull;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t d = bo.next_us();
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, kMaxRoundable);
  }
  EXPECT_EQ(bo.attempts(), 5000u);

  // With jitter off, the saturated schedule is pinned exactly at the clamp.
  cfg.jitter = 0.0;
  Backoff pinned(cfg);
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) last = pinned.next_us();
  EXPECT_EQ(last, kMaxRoundable);

  // The capped_ latch must not freeze growth-free schedules early, and
  // reset() must re-arm it.
  BackoffConfig flat;
  flat.base_us = 500;
  flat.multiplier = 1.0;
  flat.cap_us = 1000;
  flat.jitter = 0.0;
  Backoff fb(flat);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fb.next_us(), 500u);
  bo.reset();
  cfg.jitter = 0.5;  // back to bo's original config
  Backoff fresh(cfg);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(bo.next_us(), fresh.next_us());
}

TEST(Backoff, JitterStaysBounded) {
  BackoffConfig cfg;
  cfg.base_us = 1000;
  cfg.multiplier = 1.0;  // isolate the jitter term
  cfg.cap_us = 1000;
  cfg.jitter = 0.25;
  Backoff bo(cfg);
  bool saw_low = false, saw_high = false;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t d = bo.next_us();
    EXPECT_GE(d, 750u);
    EXPECT_LE(d, 1250u);
    saw_low = saw_low || d < 1000u;
    saw_high = saw_high || d > 1000u;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(Backoff, RejectsInvalidConfig) {
  BackoffConfig cfg;
  cfg.base_us = 0;
  EXPECT_THROW(Backoff{cfg}, std::invalid_argument);
  cfg = {};
  cfg.multiplier = 0.5;
  EXPECT_THROW(Backoff{cfg}, std::invalid_argument);
  cfg = {};
  cfg.jitter = 1.5;
  EXPECT_THROW(Backoff{cfg}, std::invalid_argument);
  cfg = {};
  cfg.cap_us = 1;  // below base
  EXPECT_THROW(Backoff{cfg}, std::invalid_argument);
}

TEST(Backoff, RetrierChargesBackoffIntoRegistry) {
  obs::Registry reg;
  BackoffConfig cfg;
  cfg.jitter = 0.0;
  cfg.base_us = 100;
  fault::Retrier retrier(4, &reg, cfg);
  int calls = 0;
  const int result = retrier.run([&] { return ++calls; },
                                 [](int v) { return v >= 3; });
  EXPECT_EQ(result, 3);
  EXPECT_EQ(retrier.retries(), 2u);
  EXPECT_EQ(reg.counter(fault::metrics::kRetries), 2u);
  EXPECT_EQ(reg.counter(fault::metrics::kBackoffUs), 100u + 200u);
  EXPECT_EQ(retrier.backoff_us(), 300u);
}

TEST(AttemptSeed, FirstAttemptReproducesBaseSeed) {
  EXPECT_EQ(svc::attempt_seed(0xabcdULL, 0), 0xabcdULL);
  EXPECT_EQ(svc::attempt_seed(0xabcdULL, 1), 0xabcdULL);
  EXPECT_NE(svc::attempt_seed(0xabcdULL, 2), 0xabcdULL);
  EXPECT_NE(svc::attempt_seed(0xabcdULL, 2), svc::attempt_seed(0xabcdULL, 3));
  EXPECT_EQ(svc::attempt_seed(0xabcdULL, 2), svc::attempt_seed(0xabcdULL, 2));
}

// --------------------------------------------------------- CircuitBreaker --

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndRecovers) {
  using State = svc::CircuitBreaker::State;
  auto now = std::chrono::steady_clock::time_point{} + 1h;  // manual clock
  svc::CircuitBreaker br(3, 10ms);

  EXPECT_TRUE(br.allow(now));
  br.on_failure(now);
  br.on_failure(now);
  EXPECT_EQ(br.state(), State::Closed);
  br.on_success();  // success resets the consecutive count
  br.on_failure(now);
  br.on_failure(now);
  EXPECT_EQ(br.state(), State::Closed);
  br.on_failure(now);
  EXPECT_EQ(br.state(), State::Open);

  EXPECT_FALSE(br.allow(now));
  EXPECT_FALSE(br.allow(now + 9ms));
  EXPECT_TRUE(br.allow(now + 10ms));  // half-open probe
  EXPECT_EQ(br.state(), State::HalfOpen);
  EXPECT_FALSE(br.allow(now + 10ms));  // only one probe in flight

  br.on_success();
  EXPECT_EQ(br.state(), State::Closed);
  EXPECT_TRUE(br.allow(now + 11ms));
}

TEST(CircuitBreaker, FailedProbeReopensNeutralProbeReprobes) {
  using State = svc::CircuitBreaker::State;
  auto now = std::chrono::steady_clock::time_point{} + 1h;
  svc::CircuitBreaker br(1, 10ms);

  br.on_failure(now);
  EXPECT_EQ(br.state(), State::Open);
  EXPECT_TRUE(br.allow(now + 10ms));
  br.on_failure(now + 10ms);  // probe failed: full cooldown again
  EXPECT_EQ(br.state(), State::Open);
  EXPECT_FALSE(br.allow(now + 19ms));
  EXPECT_TRUE(br.allow(now + 20ms));

  br.on_neutral(now + 20ms);  // probe cancelled: re-probe immediately
  EXPECT_EQ(br.state(), State::Open);
  EXPECT_TRUE(br.allow(now + 20ms));
}

TEST(CircuitBreaker, ZeroThresholdNeverTrips) {
  auto now = std::chrono::steady_clock::time_point{};
  svc::CircuitBreaker br(0, 10ms);
  for (int i = 0; i < 100; ++i) br.on_failure(now);
  EXPECT_TRUE(br.allow(now));
}

// -------------------------------------------------------------- JobRunner --

TEST(JobRunner, CompletesJobsWithPlainSimResults) {
  const auto graph = keyswitch_graph();
  const sim::SimResult ref = sim::simulate_alchemist(*graph, arch::ArchConfig::alchemist());

  svc::RunnerOptions opts;
  opts.workers = 4;
  svc::JobRunner runner(opts);
  std::vector<svc::JobPtr> jobs;
  for (int i = 0; i < 16; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    jobs.push_back(runner.submit(std::move(spec)));
  }
  runner.drain();
  for (const svc::JobPtr& j : jobs) {
    ASSERT_EQ(j->state(), svc::JobState::Completed) << j->error();
    EXPECT_EQ(j->attempts(), 1u);
    EXPECT_EQ(j->result().cycles, ref.cycles);
    EXPECT_EQ(j->result().registry.counters(), ref.registry.counters());
  }
  const obs::Registry reg = runner.snapshot();
  EXPECT_EQ(reg.counter(svc::metrics::kSubmitted), 16u);
  EXPECT_EQ(reg.counter(svc::metrics::kAdmitted), 16u);
  EXPECT_EQ(reg.counter(svc::metrics::kCompleted), 16u);
  EXPECT_EQ(reg.gauge(svc::metrics::kWorkers), 4.0);
  EXPECT_GT(reg.gauge(std::string(svc::metrics::kLatencyTotalUs) + ".p99"), 0.0);
}

TEST(JobRunner, RejectsNullGraph) {
  svc::JobRunner runner;
  EXPECT_THROW(runner.submit(svc::JobSpec{}), std::invalid_argument);
}

TEST(JobRunner, ShedsWhenQueueIsFull) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 2;
  opts.start_paused = true;
  svc::JobRunner runner(opts);

  std::vector<svc::JobPtr> jobs;
  for (int i = 0; i < 5; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    jobs.push_back(runner.submit(std::move(spec)));
  }
  // With parked workers the queue holds exactly 2; the rest are already
  // terminal before submit() returns.
  for (int i = 0; i < 2; ++i) EXPECT_EQ(jobs[i]->state(), svc::JobState::Queued);
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(jobs[i]->state(), svc::JobState::Shed);
    EXPECT_NE(jobs[i]->error().find("queue_full"), std::string::npos);
  }
  runner.set_paused(false);
  runner.drain();
  EXPECT_EQ(jobs[0]->state(), svc::JobState::Completed);
  EXPECT_EQ(jobs[1]->state(), svc::JobState::Completed);

  const obs::Registry reg = runner.snapshot();
  EXPECT_EQ(reg.counter(svc::metrics::kRejected, {{"reason", "queue_full"}}), 3u);
  EXPECT_EQ(reg.gauge(svc::metrics::kQueueDepth, {{"stat", "peak"}}), 2.0);
}

TEST(JobRunner, CancelWhileQueued) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.start_paused = true;
  svc::JobRunner runner(opts);
  svc::JobSpec spec;
  spec.graph = graph;
  const svc::JobPtr job = runner.submit(std::move(spec));
  job->cancel();
  runner.set_paused(false);
  job->wait();
  EXPECT_EQ(job->state(), svc::JobState::Cancelled);
}

TEST(JobRunner, StepBudgetExpiresThenResumesBitIdentical) {
  const auto graph = keyswitch_graph();
  const sim::SimResult ref = sim::simulate_alchemist(*graph, arch::ArchConfig::alchemist());

  svc::JobRunner runner;
  svc::JobSpec spec;
  spec.graph = graph;
  spec.max_steps = 1;
  const svc::JobPtr job = runner.submit(std::move(spec));
  job->wait();
  ASSERT_EQ(job->state(), svc::JobState::DeadlineExpired);
  const sim::Checkpoint cp = job->checkpoint();
  ASSERT_TRUE(cp.valid());

  svc::JobSpec resume;
  resume.graph = graph;
  resume.resume_from = cp;
  const svc::JobPtr resumed = runner.submit(std::move(resume));
  resumed->wait();
  ASSERT_EQ(resumed->state(), svc::JobState::Completed) << resumed->error();
  EXPECT_EQ(resumed->result().cycles, ref.cycles);
  EXPECT_EQ(resumed->result().time_us, ref.time_us);
  EXPECT_EQ(resumed->result().registry.counters(), ref.registry.counters());
  EXPECT_EQ(runner.snapshot().counter(svc::metrics::kResumed), 1u);
}

TEST(JobRunner, WallClockDeadlineAlreadyExpiredWhenDequeued) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.start_paused = true;
  svc::JobRunner runner(opts);
  svc::JobSpec spec;
  spec.graph = graph;
  spec.deadline = 1us;  // expires while parked in the queue
  const svc::JobPtr job = runner.submit(std::move(spec));
  std::this_thread::sleep_for(1ms);
  runner.set_paused(false);
  job->wait();
  EXPECT_EQ(job->state(), svc::JobState::DeadlineExpired);
}

TEST(JobRunner, RetriesExhaustBudgetOnPermanentCorruption) {
  const auto graph = keyswitch_graph();
  svc::JobRunner runner;
  svc::JobSpec spec;
  spec.graph = graph;
  spec.fault_enabled = true;
  spec.fault.compute_fault_rate = 1.0;  // every attempt corrupts
  spec.max_attempts = 3;
  const svc::JobPtr job = runner.submit(std::move(spec));
  job->wait();
  EXPECT_EQ(job->state(), svc::JobState::Failed);
  EXPECT_EQ(job->attempts(), 3u);
  EXPECT_EQ(runner.snapshot().counter(svc::metrics::kRetries), 2u);
}

TEST(JobRunner, RetrySucceedsWithRerolledSeed) {
  const auto graph = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  // Deterministically find a seed whose first attempt corrupts the run but
  // whose re-rolled second attempt is clean.
  fault::FaultConfig probe;
  probe.compute_fault_rate = probe.sram_fault_rate = probe.hbm_fault_rate = 5e-9;
  u64 seed = 0;
  bool found = false;
  for (u64 s = 1; s < 400 && !found; ++s) {
    auto corrupted = [&](u64 attempt) {
      fault::FaultConfig fc = probe;
      fc.seed = svc::attempt_seed(s, attempt);
      fault::FaultModel fm(fc, cfg.num_units);
      return sim::simulate_alchemist(*graph, cfg, nullptr, &fm)
                 .registry.counter(fault::metrics::kCorruptedOps) > 0;
    };
    if (corrupted(1) && !corrupted(2)) {
      seed = s;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed with corrupt-then-clean attempts in range";

  svc::JobRunner runner;
  svc::JobSpec spec;
  spec.graph = graph;
  spec.fault_enabled = true;
  spec.fault = probe;
  spec.fault.seed = seed;
  spec.max_attempts = 3;
  const svc::JobPtr job = runner.submit(std::move(spec));
  job->wait();
  ASSERT_EQ(job->state(), svc::JobState::Completed) << job->error();
  EXPECT_EQ(job->attempts(), 2u);
  const obs::Registry reg = runner.snapshot();
  EXPECT_EQ(reg.counter(svc::metrics::kCompleted, {{"retried", "true"}}), 1u);
}

TEST(JobRunner, BreakerFastFailsAfterConsecutiveFailures) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown = 10min;  // stays open for the rest of the test
  svc::JobRunner runner(opts);

  auto poison = [&] {
    svc::JobSpec spec;
    spec.workload_class = "poison";
    spec.graph = graph;
    spec.fault_enabled = true;
    spec.fault.compute_fault_rate = 1.0;
    const svc::JobPtr job = runner.submit(std::move(spec));
    runner.drain();
    return job;
  };
  EXPECT_EQ(poison()->state(), svc::JobState::Failed);
  EXPECT_EQ(poison()->state(), svc::JobState::Failed);
  const svc::JobPtr rejected = poison();
  EXPECT_EQ(rejected->state(), svc::JobState::CircuitOpen);

  // Other workload classes are unaffected.
  svc::JobSpec ok;
  ok.workload_class = "healthy";
  ok.graph = graph;
  const svc::JobPtr job = runner.submit(std::move(ok));
  job->wait();
  EXPECT_EQ(job->state(), svc::JobState::Completed);
}

TEST(JobRunner, DestructorCancelsQueuedJobs) {
  const auto graph = keyswitch_graph();
  std::vector<svc::JobPtr> jobs;
  {
    svc::RunnerOptions opts;
    opts.workers = 1;
    opts.start_paused = true;
    svc::JobRunner runner(opts);
    for (int i = 0; i < 4; ++i) {
      svc::JobSpec spec;
      spec.graph = graph;
      jobs.push_back(runner.submit(std::move(spec)));
    }
  }  // destructor: queued jobs must still reach a terminal state
  for (const svc::JobPtr& j : jobs) {
    EXPECT_EQ(j->state(), svc::JobState::Cancelled);
  }
}

TEST(JobRunner, LatencyHistogramsCoverEveryAdmittedJob) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 3;
  svc::JobRunner runner(opts);
  constexpr int kJobs = 9;
  for (int i = 0; i < kJobs; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.workload_class = (i % 2 == 0) ? "even" : "odd";
    runner.submit(std::move(spec));
  }
  runner.drain();

  const obs::Registry reg = runner.snapshot();
  ASSERT_EQ(reg.counter(svc::metrics::kAdmitted), kJobs);
  // Each of queue/run/total/sim is recorded untagged and per {class=}, and
  // the untagged count matches the admitted jobs exactly.
  for (const char* name :
       {svc::metrics::kLatencyQueueUs, svc::metrics::kLatencyRunUs,
        svc::metrics::kLatencyTotalUs, svc::metrics::kLatencySimUs}) {
    const obs::Histogram& all = reg.histogram(name);
    EXPECT_EQ(all.count(), kJobs) << name;
    const obs::Histogram& even = reg.histogram(name, {{"class", "even"}});
    const obs::Histogram& odd = reg.histogram(name, {{"class", "odd"}});
    EXPECT_EQ(even.count(), 5u) << name;
    EXPECT_EQ(odd.count(), 4u) << name;
    // Per-class shards merge back to the untagged family exactly.
    obs::Histogram merged = even;
    merged.merge(odd);
    EXPECT_EQ(merged, all) << name;
  }
  // Simulated latency is strictly positive and identical across the class
  // split (same graph, deterministic engine).
  const obs::Histogram& sim_all = reg.histogram(svc::metrics::kLatencySimUs);
  EXPECT_GT(sim_all.sum_ticks(), 0u);
  // Derived percentile gauges ride along in the same snapshot.
  for (const char* p : {"50", "95", "99"}) {
    EXPECT_GT(reg.gauge(std::string(svc::metrics::kLatencyTotalUs) + ".p" + p),
              0.0);
  }
}

TEST(JobRunner, SimLatencyHistogramIsBitIdenticalAcrossWorkerCounts) {
  const auto ks = keyswitch_graph();
  const auto boot = shared_graph(
      workloads::build_bootstrapping(workloads::CkksWl::paper(16), false));
  // svc.latency.sim_us records simulated time, which only depends on the
  // graph + config — not on scheduling, worker count, or wall-clock noise.
  // The snapshots must therefore be bit-identical for any worker count.
  std::vector<obs::Histogram> sims;
  std::vector<obs::Histogram> sims_tagged;
  for (std::size_t workers = 1; workers <= 8; ++workers) {
    svc::RunnerOptions opts;
    opts.workers = workers;
    svc::JobRunner runner(opts);
    for (int i = 0; i < 12; ++i) {
      svc::JobSpec spec;
      spec.graph = (i % 3 == 0) ? boot : ks;
      spec.workload_class = (i % 3 == 0) ? "boot" : "ks";
      spec.engine = (i % 2 == 0) ? svc::Engine::Level : svc::Engine::Event;
      runner.submit(std::move(spec));
    }
    runner.drain();
    const obs::Registry reg = runner.snapshot();
    sims.push_back(reg.histogram(svc::metrics::kLatencySimUs));
    sims_tagged.push_back(
        reg.histogram(svc::metrics::kLatencySimUs, {{"class", "boot"}}));
  }
  for (std::size_t i = 1; i < sims.size(); ++i) {
    EXPECT_EQ(sims[i], sims[0]) << "workers=" << i + 1;
    EXPECT_EQ(sims[i].sum_ticks(), sims[0].sum_ticks());
    EXPECT_EQ(sims_tagged[i], sims_tagged[0]) << "workers=" << i + 1;
  }
  EXPECT_EQ(sims[0].count(), 12u);
  EXPECT_EQ(sims_tagged[0].count(), 4u);
}

TEST(JobRunner, StatusJsonReportsRunnerAndBreakerState) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 32;
  svc::JobRunner runner(opts);
  for (int i = 0; i < 4; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.workload_class = "statusz";
    runner.submit(std::move(spec));
  }
  runner.drain();

  const std::string json = runner.status_json();
  for (const char* needle :
       {"\"workers\": 2", "\"paused\": false", "\"stopping\": false",
        "\"queue_depth\": 0", "\"queue_capacity\": 32", "\"running\": 0",
        "\"breakers\"", "\"statusz\": \"closed\"", "\"counters\"",
        "\"svc.completed\": 4", "\"substrate\""}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing " << needle << " in:\n" << json;
  }
  const auto breakers = runner.breaker_states();
  ASSERT_EQ(breakers.size(), 1u);
  EXPECT_EQ(breakers.at("statusz"), svc::CircuitBreaker::State::Closed);
}

TEST(JobRunner, ProfileFlagAttachesUtilizationWithoutPerturbingResults) {
  const auto graph = keyswitch_graph();
  svc::JobRunner runner;

  auto submit = [&](bool profile, svc::Engine engine) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.profile = profile;
    spec.engine = engine;
    const svc::JobPtr job = runner.submit(std::move(spec));
    job->wait();
    EXPECT_EQ(job->state(), svc::JobState::Completed) << job->error();
    return job;
  };
  for (svc::Engine engine : {svc::Engine::Level, svc::Engine::Event}) {
    const svc::JobPtr plain = submit(false, engine);
    const svc::JobPtr profiled = submit(true, engine);
    // The profiler is an observer: identical simulated outcome either way.
    EXPECT_EQ(profiled->result().cycles, plain->result().cycles);
    EXPECT_EQ(profiled->result().time_us, plain->result().time_us);
    EXPECT_EQ(profiled->result().registry.counters(),
              plain->result().registry.counters());
    EXPECT_FALSE(plain->result().profile.enabled());
    const obs::UtilizationProfile& prof = profiled->result().profile;
    ASSERT_TRUE(prof.enabled());
    ASSERT_EQ(prof.units.size(), arch::ArchConfig::alchemist().num_units);
    for (const obs::UnitCycles& u : prof.units) {
      EXPECT_EQ(u.total(), prof.total_cycles);
    }
  }
}

TEST(JobRunner, TerminalCountersPartitionSubmitted) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 3;
  opts.queue_capacity = 8;
  opts.start_paused = true;
  svc::JobRunner runner(opts);
  std::vector<svc::JobPtr> jobs;
  for (int i = 0; i < 12; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    if (i % 4 == 1) spec.max_steps = 1;  // expires
    if (i % 4 == 2) {
      spec.fault_enabled = true;
      spec.fault.compute_fault_rate = 1.0;
      spec.max_attempts = 2;  // fails after one retry
    }
    jobs.push_back(runner.submit(std::move(spec)));
  }
  jobs[0]->cancel();
  runner.set_paused(false);
  runner.drain();

  const obs::Registry reg = runner.snapshot();
  const std::uint64_t terminal =
      reg.counter(svc::metrics::kCompleted) + reg.counter(svc::metrics::kFailed) +
      reg.counter(svc::metrics::kCancelled) +
      reg.counter(svc::metrics::kDeadlineExpired) +
      reg.total_over_tags("svc.rejected{");
  EXPECT_EQ(terminal, reg.counter(svc::metrics::kSubmitted));
  EXPECT_EQ(reg.counter(svc::metrics::kSubmitted), 12u);
  for (const svc::JobPtr& j : jobs) EXPECT_TRUE(j->terminal());
}

// --- Distributed tracing / flight recorder --------------------------------

// (trace, span, parent, name, kind) identity of a span tree: everything that
// must be invariant across worker counts and repeat runs. Timestamps and
// track assignment (which worker ran an attempt) legitimately vary.
using SpanKey =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::string, std::string>;

std::multiset<SpanKey> span_tree(const obs::TraceSink& sink) {
  std::multiset<SpanKey> keys;
  for (const obs::SpanRecord& s : sink.snapshot()) {
    keys.insert({s.trace_id, s.span_id, s.parent_span, s.name, s.kind});
  }
  return keys;
}

TEST(JobRunner, TracedRunIsBitIdenticalWithSummary) {
  const auto graph = keyswitch_graph();
  const sim::SimResult ref =
      sim::simulate_alchemist(*graph, arch::ArchConfig::alchemist());

  obs::TraceSink sink;
  obs::EventLog log;
  svc::RunnerOptions opts;
  opts.trace = &sink;
  opts.log = &log;
  svc::JobRunner runner(opts);
  svc::JobSpec spec;
  spec.graph = graph;
  spec.name = "traced";
  const svc::JobPtr job = runner.submit(std::move(spec));
  job->wait();
  ASSERT_EQ(job->state(), svc::JobState::Completed) << job->error();
  EXPECT_EQ(job->result().cycles, ref.cycles);
  EXPECT_EQ(job->result().time_us, ref.time_us);
  EXPECT_EQ(job->result().registry.counters(), ref.registry.counters());

  const svc::TraceSummary sum = job->trace_summary();
  EXPECT_NE(sum.trace_id, 0u);
  EXPECT_EQ(sum.trace_id, job->trace_context().trace_id);
  EXPECT_NE(sum.root_span, 0u);
  EXPECT_EQ(sum.attempts, 1u);
  EXPECT_EQ(sum.retries, 0u);
  EXPECT_GT(sum.total_us, 0.0);
  EXPECT_GE(sum.total_us, sum.run_us);
  EXPECT_EQ(sum.sim_us, ref.time_us);

  // The span tree holds the job root, its queue wait, one attempt and the
  // engine's run span, all on the same trace.
  std::map<std::string, std::size_t> by_name;
  for (const obs::SpanRecord& s : sink.snapshot()) {
    EXPECT_EQ(s.trace_id, sum.trace_id);
    ++by_name[s.name];
  }
  EXPECT_EQ(by_name["job"], 1u);
  EXPECT_EQ(by_name["queue"], 1u);
  EXPECT_EQ(by_name["attempt"], 1u);
  EXPECT_EQ(by_name["sim"], 1u);

  // Flight recorder saw admission and completion for the job.
  const std::vector<obs::LogEvent> events = log.tail(10);
  ASSERT_GE(events.size(), 2u);
  for (const obs::LogEvent& ev : events) EXPECT_EQ(ev.trace_id, sum.trace_id);
}

TEST(JobRunner, RetryKeepsTraceIdAndRecordsBackoffSpans) {
  const auto graph = keyswitch_graph();
  obs::TraceSink sink;
  obs::EventLog log;
  svc::RunnerOptions opts;
  opts.trace = &sink;
  opts.log = &log;
  opts.backoff.base_us = 1000;
  svc::JobRunner runner(opts);
  svc::JobSpec spec;
  spec.graph = graph;
  spec.fault_enabled = true;
  spec.fault.compute_fault_rate = 1.0;  // every attempt corrupts
  spec.max_attempts = 3;
  const svc::JobPtr job = runner.submit(std::move(spec));
  job->wait();
  ASSERT_EQ(job->state(), svc::JobState::Failed);

  const svc::TraceSummary sum = job->trace_summary();
  EXPECT_EQ(sum.attempts, 3u);
  EXPECT_EQ(sum.retries, 2u);
  EXPECT_GT(sum.backoff_us, 0.0);

  std::size_t attempts = 0, backoffs = 0;
  for (const obs::SpanRecord& s : sink.snapshot()) {
    EXPECT_EQ(s.trace_id, sum.trace_id) << s.name;
    if (s.name == "attempt") ++attempts;
    if (s.name == "backoff") ++backoffs;
  }
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(backoffs, 2u);  // no backoff after the final attempt

  bool saw_retry_event = false;
  for (const obs::LogEvent& ev : log.tail(32)) {
    if (ev.message.find("retry") != std::string::npos) saw_retry_event = true;
  }
  EXPECT_TRUE(saw_retry_event);
}

TEST(JobRunner, ResumeJoinsTheOriginalTrace) {
  const auto graph = keyswitch_graph();
  const sim::SimResult ref =
      sim::simulate_alchemist(*graph, arch::ArchConfig::alchemist());

  obs::TraceSink sink;
  svc::RunnerOptions opts;
  opts.trace = &sink;
  svc::JobRunner runner(opts);
  svc::JobSpec spec;
  spec.graph = graph;
  spec.max_steps = 1;
  const svc::JobPtr job = runner.submit(std::move(spec));
  job->wait();
  ASSERT_EQ(job->state(), svc::JobState::DeadlineExpired);
  ASSERT_TRUE(job->checkpoint().valid());
  EXPECT_EQ(job->checkpoint().step, 1u);

  svc::JobSpec resume;
  resume.graph = graph;
  resume.resume_from = job->checkpoint();
  resume.trace = job->trace_context();  // both halves share one trace
  const svc::JobPtr resumed = runner.submit(std::move(resume));
  resumed->wait();
  ASSERT_EQ(resumed->state(), svc::JobState::Completed) << resumed->error();
  EXPECT_EQ(resumed->result().cycles, ref.cycles);

  EXPECT_EQ(resumed->trace_context().trace_id, job->trace_context().trace_id);
  // The resumed root is linked under the interrupted job's root span, and
  // the interrupted half recorded its checkpoint capture.
  std::size_t roots = 0, checkpoints = 0;
  for (const obs::SpanRecord& s : sink.snapshot()) {
    EXPECT_EQ(s.trace_id, job->trace_context().trace_id);
    if (s.name == "job") {
      ++roots;
      if (s.span_id == resumed->trace_context().span_id) {
        EXPECT_EQ(s.parent_span, job->trace_context().span_id);
      }
    }
    if (s.name == "checkpoint") ++checkpoints;
  }
  EXPECT_EQ(roots, 2u);
  EXPECT_GE(checkpoints, 1u);
}

TEST(JobRunner, SpanTreeIsWorkerCountInvariant) {
  const auto graph = keyswitch_graph();
  std::multiset<SpanKey> reference;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    obs::TraceSink sink;
    svc::RunnerOptions opts;
    opts.workers = workers;
    opts.trace = &sink;
    svc::JobRunner runner(opts);
    std::vector<svc::JobPtr> jobs;
    for (int i = 0; i < 8; ++i) {
      svc::JobSpec spec;
      spec.graph = graph;
      spec.engine = (i % 2 == 0) ? svc::Engine::Level : svc::Engine::Event;
      jobs.push_back(runner.submit(std::move(spec)));
    }
    runner.drain();
    for (const svc::JobPtr& j : jobs) {
      ASSERT_EQ(j->state(), svc::JobState::Completed) << j->error();
    }
    const std::multiset<SpanKey> tree = span_tree(sink);
    EXPECT_FALSE(tree.empty());
    if (reference.empty()) {
      reference = tree;
    } else {
      EXPECT_EQ(tree, reference) << "span tree varies at " << workers << " workers";
    }
  }
}

// --- Introspection endpoints ----------------------------------------------

// Minimal blocking HTTP/1.1 GET against loopback; returns the raw response.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

TEST(Introspection, BuildInfoJsonReportsProvenance) {
  const std::string info = svc::build_info_json();
  EXPECT_NE(info.find("\"version\""), std::string::npos);
  EXPECT_NE(info.find("\"build_type\""), std::string::npos);
  EXPECT_NE(info.find("\"compiler\""), std::string::npos);
  EXPECT_NE(info.find("\"standard\""), std::string::npos);
  EXPECT_NE(info.find("\"sanitizers\""), std::string::npos);
}

TEST(Introspection, EphemeralPortServesTraceLogAndBuildEndpoints) {
  const auto graph = keyswitch_graph();
  obs::TraceSink sink;
  obs::EventLog log;
  svc::RunnerOptions opts;
  opts.trace = &sink;
  opts.log = &log;
  svc::JobRunner runner(opts);
  for (int i = 0; i < 4; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    runner.submit(std::move(spec));
  }
  runner.drain();

  svc::IntrospectionServer server(
      /*port=*/0, [&] { return runner.snapshot(); },
      [&] { return runner.status_json(); },
      svc::IntrospectionOptions{&sink, &log});
  ASSERT_TRUE(server.ok()) << server.error();
  // Port 0 must resolve to the actually-bound ephemeral port.
  ASSERT_GT(server.port(), 0);

  const std::string buildz = http_get(server.port(), "/buildz");
  EXPECT_NE(buildz.find("200 OK"), std::string::npos);
  EXPECT_NE(buildz.find("\"version\""), std::string::npos);

  const std::string tracez = http_get(server.port(), "/tracez?n=5&slowest=2");
  EXPECT_NE(tracez.find("200 OK"), std::string::npos);
  EXPECT_NE(tracez.find("\"recent\""), std::string::npos);
  EXPECT_NE(tracez.find("\"slowest\""), std::string::npos);

  const std::string logz = http_get(server.port(), "/logz?n=10&min=info");
  EXPECT_NE(logz.find("200 OK"), std::string::npos);
  EXPECT_NE(logz.find("\"sev\":\"info\""), std::string::npos);
  EXPECT_EQ(logz.find("\"sev\":\"debug\""), std::string::npos);
}

TEST(Introspection, TraceAndLogEndpointsAre404WithoutSources) {
  svc::IntrospectionServer server(
      /*port=*/0, [] { return obs::Registry(); }, [] { return std::string("{}"); });
  ASSERT_TRUE(server.ok()) << server.error();
  EXPECT_NE(http_get(server.port(), "/tracez").find("404"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/logz").find("404"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/buildz").find("200 OK"), std::string::npos);
}

// Connects and sends `payload` without completing the request, then reads
// whatever the server answers (the hardening paths: 408 / 431).
std::string http_send_raw(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  if (!payload.empty()) (void)!::write(fd, payload.data(), payload.size());
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Introspection, SlowClientGets408WithoutWedgingTheServer) {
  svc::IntrospectionOptions opts;
  opts.read_deadline = std::chrono::milliseconds(100);
  svc::IntrospectionServer server(
      /*port=*/0, [] { return obs::Registry(); },
      [] { return std::string("{}"); }, opts);
  ASSERT_TRUE(server.ok()) << server.error();
  // A client that opens the connection and never finishes its headers must
  // be cut off with 408 once the read deadline passes...
  const std::string stalled = http_send_raw(server.port(), "GET /hea");
  EXPECT_NE(stalled.find("408"), std::string::npos) << stalled;
  // ...and one that sends nothing at all times out the same way.
  const std::string silent = http_send_raw(server.port(), "");
  EXPECT_NE(silent.find("408"), std::string::npos) << silent;
  // The single-threaded accept loop must still serve the next client.
  EXPECT_NE(http_get(server.port(), "/healthz").find("200 OK"),
            std::string::npos);
}

TEST(Introspection, OversizedRequestsGet431) {
  svc::IntrospectionOptions opts;
  opts.max_request_line = 256;
  opts.max_request_bytes = 2048;
  svc::IntrospectionServer server(
      /*port=*/0, [] { return obs::Registry(); },
      [] { return std::string("{}"); }, opts);
  ASSERT_TRUE(server.ok()) << server.error();
  // Request line alone past the cap (no terminator yet).
  const std::string long_line =
      "GET /" + std::string(1024, 'a') + " HTTP/1.1\r\n\r\n";
  EXPECT_NE(http_send_raw(server.port(), long_line).find("431"),
            std::string::npos);
  // Short request line, but headers ballooning past max_request_bytes.
  std::string fat_headers = "GET /healthz HTTP/1.1\r\n";
  for (int i = 0; i < 64; ++i) {
    fat_headers += "X-Pad-" + std::to_string(i) + ": " + std::string(100, 'b') + "\r\n";
  }
  fat_headers += "\r\n";
  EXPECT_NE(http_send_raw(server.port(), fat_headers).find("431"),
            std::string::npos);
  // Within both caps still works.
  EXPECT_NE(http_get(server.port(), "/healthz").find("200 OK"),
            std::string::npos);
}

// --- Admission: token buckets and quotas ----------------------------------

TEST(TokenBucket, RefillsAtConfiguredRateUnderManualClock) {
  auto now = std::chrono::steady_clock::time_point{} + 1h;
  svc::TokenBucket bucket(/*burst=*/2.0, /*rate_per_sec=*/1.0);
  EXPECT_TRUE(bucket.try_take(now));
  EXPECT_TRUE(bucket.try_take(now));
  EXPECT_FALSE(bucket.try_take(now));  // burst exhausted
  now += 500ms;
  EXPECT_FALSE(bucket.try_take(now));  // only half a token back
  now += 500ms;
  EXPECT_TRUE(bucket.try_take(now));  // one full token refilled
  EXPECT_FALSE(bucket.try_take(now));
  // Refunds cannot mint tokens past the burst capacity.
  now += 1h;
  for (int i = 0; i < 10; ++i) bucket.refund();
  EXPECT_DOUBLE_EQ(bucket.tokens(now), 2.0);
}

TEST(TokenBucket, ZeroBurstDisablesAndZeroRateNeverRefills) {
  const auto now = std::chrono::steady_clock::time_point{} + 1h;
  svc::TokenBucket unlimited;  // burst 0 = disabled
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.try_take(now));

  svc::TokenBucket budget(/*burst=*/3.0, /*rate_per_sec=*/0.0);
  auto t = now;
  EXPECT_TRUE(budget.try_take(t));
  EXPECT_TRUE(budget.try_take(t));
  EXPECT_TRUE(budget.try_take(t));
  t += 24h;  // a non-replenishing budget stays empty forever
  EXPECT_FALSE(budget.try_take(t));
}

TEST(Admission, EnforcesRateAndConcurrencyIndependently) {
  auto now = std::chrono::steady_clock::time_point{} + 1h;
  svc::TenantPolicyTable table;
  svc::TenantPolicy p;
  p.burst = 3;
  p.rate_per_sec = 0;
  p.max_in_flight = 1;
  table.policies["a"] = p;
  svc::Admission adm(table);

  EXPECT_EQ(adm.admit("a", now), svc::Admission::Verdict::Admit);
  EXPECT_EQ(adm.in_flight("a"), 1u);
  // Concurrency rejection refunds the token it took.
  EXPECT_EQ(adm.admit("a", now), svc::Admission::Verdict::ConcurrencyLimited);
  EXPECT_EQ(adm.in_flight("a"), 1u);
  adm.release("a", now);
  EXPECT_EQ(adm.admit("a", now), svc::Admission::Verdict::Admit);
  adm.release("a", now);
  EXPECT_EQ(adm.admit("a", now), svc::Admission::Verdict::Admit);
  adm.release("a", now);
  // Three tokens spent; the non-replenishing bucket now rate-limits.
  EXPECT_EQ(adm.admit("a", now), svc::Admission::Verdict::RateLimited);
  // rollback() refunds token + slot: admission becomes possible again.
  EXPECT_EQ(adm.admit("a", now + 1s), svc::Admission::Verdict::RateLimited);
  adm.rollback("a", now + 1s);
  EXPECT_EQ(adm.admit("a", now + 1s), svc::Admission::Verdict::Admit);

  // Unconfigured tenants fall back to the unlimited policy.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(adm.admit("other", now), svc::Admission::Verdict::Admit);
  }
}

TEST(Admission, RestrictiveFallbackNeverGovernsUntenantedSubmissions) {
  const auto now = std::chrono::steady_clock::time_point{} + 1h;
  svc::TenantPolicyTable table;
  // A deployment capping unknown tenants hard: one-shot budget, one slot.
  table.fallback.burst = 1;
  table.fallback.rate_per_sec = 0;
  table.fallback.max_in_flight = 1;
  svc::Admission adm(table);

  // The empty tenant resolves the unlimited policy, not the fallback: the
  // documented contract is that untenanted means no quotas at all.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(adm.admit("", now), svc::Admission::Verdict::Admit);
  }
  // An unknown *named* tenant is governed by the fallback.
  EXPECT_EQ(adm.admit("mystery", now), svc::Admission::Verdict::Admit);
  EXPECT_EQ(adm.admit("mystery", now), svc::Admission::Verdict::RateLimited);
}

TEST(Admission, EvictsIdleFallbackStatesButKeepsConfiguredTenants) {
  auto now = std::chrono::steady_clock::time_point{} + 1h;
  svc::TenantPolicyTable table;
  svc::TenantPolicy p;
  p.burst = 2;
  p.rate_per_sec = 0;
  table.policies["keep"] = p;
  svc::Admission adm(table);

  EXPECT_EQ(adm.admit("keep", now), svc::Admission::Verdict::Admit);
  EXPECT_EQ(adm.admit("transient", now), svc::Admission::Verdict::Admit);
  auto tenants = [&] {
    std::vector<std::string> names;
    adm.for_each([&](const std::string& t, std::size_t) { names.push_back(t); });
    return names;
  };
  ASSERT_EQ(tenants().size(), 2u);

  // Releasing the fallback-resolved tenant leaves its state indistinguishable
  // from fresh (nothing in flight, unlimited bucket): it is evicted. The
  // configured tenant stays resident even once idle.
  adm.release("transient", now);
  adm.release("keep", now);
  EXPECT_EQ(tenants(), std::vector<std::string>{"keep"});

  // A fallback state whose bucket has not refilled is NOT evicted on
  // release (its remaining budget is real state)...
  svc::TenantPolicyTable limited;
  limited.fallback.burst = 2;
  limited.fallback.rate_per_sec = 1;
  svc::Admission radm(limited);
  EXPECT_EQ(radm.admit("cycler", now), svc::Admission::Verdict::Admit);
  radm.release("cycler", now);
  std::size_t live = 0;
  radm.for_each([&](const std::string&, std::size_t) { ++live; });
  EXPECT_EQ(live, 1u);
  // ...but once it refills, the amortized sweep piggybacked on a later
  // admission (of anyone) reclaims it.
  now += 5s;
  EXPECT_EQ(radm.admit("someone-else", now), svc::Admission::Verdict::Admit);
  std::vector<std::string> names;
  radm.for_each([&](const std::string& t, std::size_t) { names.push_back(t); });
  EXPECT_EQ(names, std::vector<std::string>{"someone-else"});
}

// --- FairQueue: deficit round robin ---------------------------------------

svc::JobPtr queue_job(const std::string& name) {
  static auto graph = keyswitch_graph();
  svc::JobSpec spec;
  spec.name = name;
  spec.graph = graph;
  return std::make_shared<svc::Job>(std::move(spec));
}

TEST(FairQueue, SingleLaneDegeneratesToFifo) {
  svc::FairQueue q(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.push("", 1, 0, queue_job("j" + std::to_string(i))),
              svc::FairQueue::PushResult::Ok);
  }
  EXPECT_EQ(q.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const svc::JobPtr j = q.pop();
    ASSERT_NE(j, nullptr);
    EXPECT_EQ(j->spec().name, "j" + std::to_string(i));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(FairQueue, DeficitRoundRobinHonorsWeights) {
  svc::FairQueue q(32);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(q.push("a", 2, 0, queue_job("a" + std::to_string(i))),
              svc::FairQueue::PushResult::Ok);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(q.push("b", 1, 0, queue_job("b" + std::to_string(i))),
              svc::FairQueue::PushResult::Ok);
  }
  // Weight 2:1 -> two of a, one of b, repeating.
  std::string order;
  while (const svc::JobPtr j = q.pop()) order += j->spec().name[0];
  EXPECT_EQ(order, "aabaabaab");
}

TEST(FairQueue, PerTenantAndGlobalCapsAreDistinct) {
  svc::FairQueue q(4);
  EXPECT_EQ(q.push("a", 1, 2, queue_job("a0")), svc::FairQueue::PushResult::Ok);
  EXPECT_EQ(q.push("a", 1, 2, queue_job("a1")), svc::FairQueue::PushResult::Ok);
  EXPECT_EQ(q.push("a", 1, 2, queue_job("a2")),
            svc::FairQueue::PushResult::TenantFull);
  EXPECT_EQ(q.push("b", 1, 0, queue_job("b0")), svc::FairQueue::PushResult::Ok);
  EXPECT_EQ(q.push("b", 1, 0, queue_job("b1")), svc::FairQueue::PushResult::Ok);
  EXPECT_EQ(q.push("b", 1, 0, queue_job("b2")), svc::FairQueue::PushResult::Full);
  EXPECT_EQ(q.backlog("a"), 2u);
  EXPECT_EQ(q.backlog("b"), 2u);
  const std::vector<svc::JobPtr> drained = q.drain();
  EXPECT_EQ(drained.size(), 4u);
  EXPECT_TRUE(q.empty());
}

TEST(FairQueue, EvictsDrainedSubQueues) {
  svc::FairQueue q(8);
  ASSERT_EQ(q.push("a", 1, 0, queue_job("a0")), svc::FairQueue::PushResult::Ok);
  ASSERT_EQ(q.push("b", 1, 0, queue_job("b0")), svc::FairQueue::PushResult::Ok);
  auto lanes = [&] {
    std::size_t n = 0;
    q.for_each([&](const std::string&, std::size_t) { ++n; });
    return n;
  };
  EXPECT_EQ(lanes(), 2u);
  EXPECT_NE(q.pop(), nullptr);
  EXPECT_NE(q.pop(), nullptr);
  EXPECT_TRUE(q.empty());
  // Drained lanes are erased, not kept at zero: cycling through fresh tenant
  // names leaves no state behind.
  EXPECT_EQ(lanes(), 0u);
  // A returning tenant starts a fresh lane with its current weight.
  EXPECT_EQ(q.push("a", 3, 0, queue_job("a1")), svc::FairQueue::PushResult::Ok);
  EXPECT_EQ(q.backlog("a"), 1u);
  EXPECT_EQ(lanes(), 1u);
}

// --- OverloadController: CoDel-style ladder -------------------------------

TEST(OverloadController, EscalatesAfterIntervalAndResetsOnDrain) {
  using Level = svc::OverloadController::Level;
  auto now = std::chrono::steady_clock::time_point{} + 1h;
  svc::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.target = std::chrono::microseconds(100);
  cfg.interval = std::chrono::microseconds(10'000);
  cfg.shed_factor = 8.0;
  svc::OverloadController ctl(cfg);

  EXPECT_EQ(ctl.observe(std::chrono::microseconds(50), now), Level::Normal);
  // First above-target sample opens the window but does not escalate.
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(500), now), Level::Normal);
  now += 5ms;
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(500), now), Level::Normal);
  now += 6ms;  // window complete, min sojourn 500us <= 8x target
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(500), now), Level::Degrade);
  // A single at-target sojourn means the standing queue drained: full reset.
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(100), now), Level::Normal);
  // Far above shed_factor * target for a full window escalates to Shed.
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(5'000), now), Level::Normal);
  now += 11ms;
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(5'000), now), Level::Shed);
  EXPECT_EQ(ctl.level(), Level::Shed);
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(10), now), Level::Normal);
}

TEST(OverloadController, WindowReArmsSoDegradeCanStillEscalate) {
  using Level = svc::OverloadController::Level;
  auto now = std::chrono::steady_clock::time_point{} + 1h;
  svc::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.target = std::chrono::microseconds(100);
  cfg.interval = std::chrono::microseconds(10'000);
  cfg.shed_factor = 8.0;  // shed_at = 800us
  svc::OverloadController ctl(cfg);

  // One early mildly-above-target sample (200us) dominates the first window:
  // the decision is Degrade.
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(200), now), Level::Normal);
  now += 11ms;
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(20'000), now), Level::Degrade);
  // The window re-armed with that decision. Were the 200us sample still the
  // running minimum, the sustained 20ms standing delay could never cross the
  // 800us shed threshold; a fresh window sees only the 20ms samples.
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(20'000), now), Level::Degrade);
  now += 11ms;
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(20'000), now), Level::Shed);
  // Re-arm works downward too: delay receding below shed_at (but still above
  // target) de-escalates Shed to Degrade at the next window...
  now += 1ms;
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(200), now), Level::Shed);
  now += 11ms;
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(200), now), Level::Degrade);
  // ...and one at-target sojourn still resets the ladder outright.
  EXPECT_EQ(ctl.observe(std::chrono::microseconds(50), now), Level::Normal);
}

TEST(OverloadController, DisabledNeverLeavesNormal) {
  using Level = svc::OverloadController::Level;
  svc::OverloadController ctl;  // default config: disabled
  auto now = std::chrono::steady_clock::time_point{} + 1h;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ctl.observe(std::chrono::hours(1), now), Level::Normal);
    now += 1h;
  }
}

// --- JobRunner: tenancy ----------------------------------------------------

TEST(JobRunner, QuotaRateLimitRejectsTyped) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 2;
  opts.start_paused = true;
  svc::TenantPolicy p;
  p.burst = 1;
  p.rate_per_sec = 0;
  opts.tenants.policies["t0"] = p;
  svc::JobRunner runner(opts);

  std::vector<svc::JobPtr> jobs;
  for (int i = 0; i < 3; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.tenant = "t0";
    jobs.push_back(runner.submit(std::move(spec)));
  }
  EXPECT_EQ(jobs[0]->state(), svc::JobState::Queued);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(jobs[i]->state(), svc::JobState::QuotaExceeded);
    EXPECT_NE(jobs[i]->error().find("quota_rate"), std::string::npos);
  }
  runner.set_paused(false);
  runner.drain();
  EXPECT_EQ(jobs[0]->state(), svc::JobState::Completed);

  const obs::Registry reg = runner.snapshot();
  EXPECT_EQ(reg.counter(svc::metrics::kRejected, {{"reason", "quota_rate"}}), 2u);
  EXPECT_EQ(reg.counter(svc::metrics::kTenantSubmitted, {{"tenant", "t0"}}), 3u);
  EXPECT_EQ(reg.counter(svc::metrics::kTenantAdmitted, {{"tenant", "t0"}}), 1u);
  EXPECT_EQ(reg.counter(svc::metrics::kTenantRejected,
                        {{"reason", "quota_rate"}, {"tenant", "t0"}}),
            2u);
  EXPECT_EQ(reg.counter(svc::metrics::kTenantTerminal,
                        {{"state", "completed"}, {"tenant", "t0"}}),
            1u);
  // Terminal counters + typed rejections still partition svc.submitted.
  EXPECT_EQ(reg.counter(svc::metrics::kCompleted) +
                reg.total_over_tags("svc.rejected{"),
            reg.counter(svc::metrics::kSubmitted));
}

TEST(JobRunner, ConcurrencyQuotaFreesSlotOnTerminal) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 2;
  opts.start_paused = true;
  svc::TenantPolicy p;
  p.max_in_flight = 1;
  opts.tenants.policies["t0"] = p;
  svc::JobRunner runner(opts);

  auto submit = [&] {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.tenant = "t0";
    return runner.submit(std::move(spec));
  };
  const svc::JobPtr first = submit();
  const svc::JobPtr second = submit();
  EXPECT_EQ(first->state(), svc::JobState::Queued);
  EXPECT_EQ(second->state(), svc::JobState::QuotaExceeded);
  EXPECT_NE(second->error().find("quota_concurrency"), std::string::npos);
  runner.set_paused(false);
  runner.drain();
  EXPECT_EQ(first->state(), svc::JobState::Completed);
  // The terminal transition released the slot: the next submission sails in.
  const svc::JobPtr third = submit();
  third->wait();
  EXPECT_EQ(third->state(), svc::JobState::Completed);
}

TEST(JobRunner, DrrIsolatesLateTenantFromEarlyBacklog) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 1;  // strictly serial: dequeue order == DRR order
  opts.start_paused = true;
  opts.tenants.policies["hog"] = svc::TenantPolicy{};
  opts.tenants.policies["late"] = svc::TenantPolicy{};
  svc::JobRunner runner(opts);

  std::vector<svc::JobPtr> hog, late;
  for (int i = 0; i < 8; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.tenant = "hog";
    hog.push_back(runner.submit(std::move(spec)));
  }
  for (int i = 0; i < 2; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.tenant = "late";
    late.push_back(runner.submit(std::move(spec)));
  }
  runner.set_paused(false);
  runner.drain();
  for (const svc::JobPtr& j : hog) ASSERT_EQ(j->state(), svc::JobState::Completed);
  for (const svc::JobPtr& j : late) ASSERT_EQ(j->state(), svc::JobState::Completed);
  // Round robin interleaves the lanes: the late tenant's last job (served by
  // round 4) dequeues before the hog's last (round 10) despite 8 jobs of
  // head-of-line backlog — under FIFO it would have waited behind all of them.
  EXPECT_LT(late.back()->trace_summary().queue_us,
            hog.back()->trace_summary().queue_us);
}

TEST(JobRunner, BreakerIsolatedPerTenantAndClass) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 1;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown = std::chrono::seconds(600);
  svc::JobRunner runner(opts);

  auto poison = [&](const char* tenant) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.tenant = tenant;
    spec.workload_class = "poison";
    spec.fault_enabled = true;
    spec.fault.compute_fault_rate = 1.0;
    spec.max_attempts = 1;
    const svc::JobPtr j = runner.submit(std::move(spec));
    runner.drain();
    return j;
  };
  EXPECT_EQ(poison("a")->state(), svc::JobState::Failed);
  EXPECT_EQ(poison("a")->state(), svc::JobState::Failed);
  // Tenant a's poison breaker is open now...
  EXPECT_EQ(poison("a")->state(), svc::JobState::CircuitOpen);
  // ...but tenant b's same-class jobs and untenanted jobs are untouched.
  EXPECT_EQ(poison("b")->state(), svc::JobState::Failed);
  EXPECT_EQ(poison("")->state(), svc::JobState::Failed);

  const auto states = runner.breaker_states();
  ASSERT_TRUE(states.count("a/poison"));
  ASSERT_TRUE(states.count("b/poison"));
  ASSERT_TRUE(states.count("poison"));  // untenanted key: class alone
  EXPECT_EQ(states.at("a/poison"), svc::CircuitBreaker::State::Open);
  EXPECT_EQ(states.at("b/poison"), svc::CircuitBreaker::State::Closed);
  EXPECT_EQ(states.at("poison"), svc::CircuitBreaker::State::Closed);
}

TEST(JobRunner, OverloadDegradesDegradableJobsBitIdentically) {
  const auto graph = keyswitch_graph();
  const sim::SimResult ref =
      sim::simulate_alchemist(*graph, arch::ArchConfig::alchemist());
  svc::RunnerOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  opts.overload.enabled = true;
  // Paused-queue sojourns are milliseconds, so a 1us target is always
  // exceeded; shed_at = 1us * 1e18 never is — the ladder stops at Degrade.
  opts.overload.target = std::chrono::microseconds(1);
  opts.overload.interval = std::chrono::microseconds(0);
  opts.overload.shed_factor = 1e18;
  svc::JobRunner runner(opts);

  std::vector<svc::JobPtr> jobs;
  for (int i = 0; i < 4; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.degradable = true;
    spec.checkpoint_interval = 2;
    spec.max_attempts = 3;
    jobs.push_back(runner.submit(std::move(spec)));
  }
  runner.set_paused(false);
  runner.drain();
  // With one worker the first dequeue only opens the CoDel window; every
  // later one sees Degrade.
  ASSERT_EQ(jobs[0]->state(), svc::JobState::Completed);
  EXPECT_FALSE(jobs[0]->degraded());
  for (int i = 1; i < 4; ++i) {
    ASSERT_EQ(jobs[i]->state(), svc::JobState::Completed) << jobs[i]->error();
    EXPECT_TRUE(jobs[i]->degraded());
    EXPECT_TRUE(jobs[i]->trace_summary().degraded);
    EXPECT_EQ(jobs[i]->attempts(), 1u);
    // Reduced detail changes observability, never the simulated outcome.
    EXPECT_EQ(jobs[i]->result().cycles, ref.cycles);
    EXPECT_EQ(jobs[i]->result().registry.counters(), ref.registry.counters());
  }
  const obs::Registry reg = runner.snapshot();
  EXPECT_EQ(reg.counter(svc::metrics::kDegraded), 3u);
  EXPECT_EQ(reg.gauge(svc::metrics::kOverloadLevel), 1.0);  // Degrade
}

TEST(JobRunner, NonDegradableJobsKeepFullServiceUnderOverload) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  opts.overload.enabled = true;
  opts.overload.target = std::chrono::microseconds(0);
  opts.overload.interval = std::chrono::microseconds(0);
  opts.overload.shed_factor = 1e18;
  svc::JobRunner runner(opts);
  std::vector<svc::JobPtr> jobs;
  for (int i = 0; i < 4; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;  // degradable defaults to false
    jobs.push_back(runner.submit(std::move(spec)));
  }
  runner.set_paused(false);
  runner.drain();
  for (const svc::JobPtr& j : jobs) {
    ASSERT_EQ(j->state(), svc::JobState::Completed);
    EXPECT_FALSE(j->degraded());
  }
  EXPECT_EQ(runner.snapshot().counter(svc::metrics::kDegraded), 0u);
}

TEST(JobRunner, ShedRecoversOnceBacklogDrains) {
  using Level = svc::OverloadController::Level;
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  opts.overload.enabled = true;
  // shed_factor 0: any standing delay sheds as soon as the window closes
  // (interval 0 closes it on the second above-target sojourn).
  opts.overload.target = std::chrono::microseconds(0);
  opts.overload.interval = std::chrono::microseconds(0);
  opts.overload.shed_factor = 0.0;
  svc::JobRunner runner(opts);

  std::vector<svc::JobPtr> jobs;
  for (int i = 0; i < 4; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    jobs.push_back(runner.submit(std::move(spec)));
  }
  runner.set_paused(false);
  runner.drain();
  // Queued work drained at Shed (never dropped)...
  for (const svc::JobPtr& j : jobs) {
    ASSERT_EQ(j->state(), svc::JobState::Completed) << j->error();
  }
  ASSERT_EQ(runner.overload_level(), Level::Shed);
  // ...and the first post-drain arrival is ADMITTED, not shed: it finds the
  // queue empty, which counts as a zero-delay observation and resets the
  // ladder. Without that feed, Shed would reject every arrival before it
  // could generate the dequeue observation needed to recover — forever.
  svc::JobSpec spec;
  spec.graph = graph;
  const svc::JobPtr recovered = runner.submit(std::move(spec));
  EXPECT_NE(recovered->state(), svc::JobState::Shed) << recovered->error();
  recovered->wait();
  EXPECT_EQ(recovered->state(), svc::JobState::Completed) << recovered->error();
  EXPECT_EQ(runner.overload_level(), Level::Normal);
  EXPECT_EQ(runner.snapshot().counter(svc::metrics::kRejected,
                                      {{"reason", "overload"}}),
            0u);
}

TEST(JobRunner, StatusJsonReportsTenantsAndOverload) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  svc::TenantPolicy p;
  p.max_in_flight = 4;
  opts.tenants.policies["acme"] = p;
  svc::JobRunner runner(opts);
  svc::JobSpec spec;
  spec.graph = graph;
  spec.tenant = "acme";
  const svc::JobPtr job = runner.submit(std::move(spec));
  const std::string parked = runner.status_json();
  EXPECT_NE(parked.find("\"overload\": \"normal\""), std::string::npos) << parked;
  EXPECT_NE(parked.find("\"acme\": {\"in_flight\": 1, \"backlog\": 1}"),
            std::string::npos)
      << parked;
  runner.set_paused(false);
  runner.drain();
  const std::string drained = runner.status_json();
  EXPECT_NE(drained.find("\"acme\": {\"in_flight\": 0, \"backlog\": 0}"),
            std::string::npos)
      << drained;
  const obs::Registry reg = runner.snapshot();
  EXPECT_EQ(reg.gauge(svc::metrics::kTenantInFlight, {{"tenant", "acme"}}), 0.0);
  EXPECT_EQ(reg.gauge(svc::metrics::kTenantBacklog, {{"tenant", "acme"}}), 0.0);
}

// Tenant names are caller-controlled: a client cycling through fresh names
// must not grow resident state (admission entries, breakers, queue lanes) or
// metric cardinality without bound. Unconfigured names coalesce under the
// reserved "_other" label and their per-tenant state is evicted at idle.
TEST(JobRunner, CyclingUnconfiguredTenantsLeavesNoResidentState) {
  const auto graph = keyswitch_graph();
  svc::RunnerOptions opts;
  opts.workers = 1;
  opts.tenants.policies["acme"] = svc::TenantPolicy{};
  svc::JobRunner runner(opts);

  constexpr int kBurners = 8;
  for (int i = 0; i < kBurners; ++i) {
    svc::JobSpec spec;
    spec.graph = graph;
    spec.tenant = "burner-" + std::to_string(i);
    const svc::JobPtr j = runner.submit(std::move(spec));
    j->wait();
    ASSERT_EQ(j->state(), svc::JobState::Completed) << j->error();
  }
  runner.drain();

  // No breaker, admission entry, or queue lane survives per burner name.
  EXPECT_TRUE(runner.breaker_states().empty());
  const std::string status = runner.status_json();
  EXPECT_EQ(status.find("burner-"), std::string::npos) << status;

  // Per-tenant counters aggregate under "_other"; no series per burner name.
  const obs::Registry reg = runner.snapshot();
  EXPECT_EQ(reg.counter(svc::metrics::kTenantSubmitted, {{"tenant", "_other"}}),
            static_cast<std::uint64_t>(kBurners));
  EXPECT_EQ(reg.counter(svc::metrics::kTenantAdmitted, {{"tenant", "_other"}}),
            static_cast<std::uint64_t>(kBurners));
  EXPECT_EQ(reg.counter(svc::metrics::kTenantTerminal,
                        {{"state", "completed"}, {"tenant", "_other"}}),
            static_cast<std::uint64_t>(kBurners));
  EXPECT_EQ(reg.counter(svc::metrics::kTenantSubmitted, {{"tenant", "burner-0"}}),
            0u);

  // A configured tenant keeps its own label and stays resident once used.
  svc::JobSpec spec;
  spec.graph = graph;
  spec.tenant = "acme";
  const svc::JobPtr j = runner.submit(std::move(spec));
  j->wait();
  ASSERT_EQ(j->state(), svc::JobState::Completed);
  runner.drain();
  const obs::Registry after = runner.snapshot();
  EXPECT_EQ(after.counter(svc::metrics::kTenantSubmitted, {{"tenant", "acme"}}),
            1u);
  EXPECT_NE(runner.status_json().find("\"acme\""), std::string::npos);
}

// Satellite invariant: whatever interleaving of concurrent submit() against
// shutdown() plays out, every handle is terminal and the terminal-state
// counters (typed rejections included) partition svc.submitted exactly.
TEST(JobRunner, ConcurrentSubmitVersusShutdownKeepsAccountingExact) {
  const auto graph = keyswitch_graph();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;

  svc::RunnerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 16;  // small: exercises queue_full alongside shutdown
  svc::TenantPolicy limited;
  limited.burst = 10;
  limited.rate_per_sec = 0;
  limited.max_in_flight = 4;
  opts.tenants.policies["limited"] = limited;
  svc::JobRunner runner(opts);

  std::vector<std::vector<svc::JobPtr>> handles(kThreads);
  std::atomic<int> submitted_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        svc::JobSpec spec;
        spec.graph = graph;
        // Half the threads run as the quota-limited tenant so QuotaExceeded
        // races the shutdown shed path too.
        if (t % 2 == 0) spec.tenant = "limited";
        try {
          handles[t].push_back(runner.submit(std::move(spec)));
          submitted_total.fetch_add(1);
        } catch (const std::invalid_argument&) {
          ADD_FAILURE() << "submit threw on a valid spec";
          return;
        }
      }
    });
  }
  // Let some submissions land, then tear down while the rest race in.
  std::this_thread::sleep_for(2ms);
  runner.shutdown();
  for (std::thread& th : threads) th.join();
  runner.shutdown();  // idempotent

  std::map<svc::JobState, std::uint64_t> tally;
  for (const auto& per_thread : handles) {
    for (const svc::JobPtr& h : per_thread) {
      ASSERT_TRUE(h->terminal()) << "non-terminal handle after shutdown";
      ++tally[h->state()];
    }
  }
  const obs::Registry reg = runner.snapshot();
  const std::uint64_t submitted = reg.counter(svc::metrics::kSubmitted);
  EXPECT_EQ(submitted, static_cast<std::uint64_t>(submitted_total.load()));
  const std::uint64_t terminal =
      reg.counter(svc::metrics::kCompleted) +
      reg.counter(svc::metrics::kFailed) +
      reg.counter(svc::metrics::kCancelled) +
      reg.counter(svc::metrics::kDeadlineExpired) +
      reg.total_over_tags("svc.rejected{");
  EXPECT_EQ(terminal, submitted) << "terminal counters do not partition submitted";
  // Handle tally and counters agree state by state.
  EXPECT_EQ(tally[svc::JobState::Completed], reg.counter(svc::metrics::kCompleted));
  EXPECT_EQ(tally[svc::JobState::Cancelled], reg.counter(svc::metrics::kCancelled));
  EXPECT_EQ(tally[svc::JobState::QuotaExceeded],
            reg.counter(svc::metrics::kRejected, {{"reason", "quota_rate"}}) +
                reg.counter(svc::metrics::kRejected,
                            {{"reason", "quota_concurrency"}}));
  EXPECT_EQ(tally[svc::JobState::Shed],
            reg.counter(svc::metrics::kRejected, {{"reason", "queue_full"}}) +
                reg.counter(svc::metrics::kRejected, {{"reason", "shutdown"}}) +
                reg.counter(svc::metrics::kRejected,
                            {{"reason", "tenant_queue_full"}}) +
                reg.counter(svc::metrics::kRejected, {{"reason", "overload"}}));
  // Post-shutdown submissions shed deterministically.
  svc::JobSpec spec;
  spec.graph = graph;
  const svc::JobPtr after = runner.submit(std::move(spec));
  EXPECT_EQ(after->state(), svc::JobState::Shed);
  EXPECT_NE(after->error().find("shutdown"), std::string::npos);
}

}  // namespace
}  // namespace alchemist
