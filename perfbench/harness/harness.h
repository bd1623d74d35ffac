// Shared pieces of the benchmark harness: options, timing, sample statistics,
// the in-memory span recorder used by traced runs, and the per-run report.
//
// Every number the harness prints is measured from outside the library: it
// times calls into public entry points and reads counters the library already
// exports. Nothing here reaches into src/ internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

namespace obs = alchemist::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;

  // A traced run repeats the untraced loop for the first half of its time.
  double untraced_seconds() const { return trace ? seconds / 2 : seconds; }
};

// Process-wide pool width per workload (recorded as substrate.threads).
// Generator/client threads + JobRunner workers + pool width stay within the
// 4-core budget the benchmark is sized for.
inline constexpr std::size_t kCkksPoolThreads = 2;
inline constexpr std::size_t kTfhePoolThreads = 1;
inline constexpr std::size_t kSimPoolThreads = 1;
inline constexpr std::size_t kSimWorkers = 2;

// Setup runs at least kSetupMinRepeats times, and more while the repeats
// total under kSetupMinSeconds (up to kSetupMaxRepeats); setup_s is the median.
inline constexpr std::size_t kSetupMinRepeats = 3;
inline constexpr std::size_t kSetupMaxRepeats = 15;
inline constexpr double kSetupMinSeconds = 1.5;

// Exact per-op counts and precision come from this fixed prefix of the
// untraced phase, so they repeat for a seed whatever the run length.
inline constexpr std::size_t kPrefixOps = 8;

using Clock = std::chrono::steady_clock;

inline double since_ms(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
inline double since_us(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

// Seeded generator for every benchmark input. It is the harness's own
// std::mt19937_64, independent of the library's Rng, so the library only ever
// sees the generated values.
class InputGen {
 public:
  explicit InputGen(std::uint64_t seed) : eng_(seed ^ 0x5eedba5e'00c0ffeeULL) {}
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(eng_);
  }
  std::uint64_t below(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(eng_);
  }

 private:
  std::mt19937_64 eng_;
};

// --- sample statistics ------------------------------------------------------

double median(std::vector<double> v);
// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

// The tail latency: each workload fixes its percentile (from p50, p75, p90,
// p95, p99) as the highest with at least ten samples beyond it at its usual
// op count, with a 2x margin. A percentile picked per run from the exact
// count would flip between neighbours when the count sits near a boundary.
// A run with too few samples falls back to the highest that has ten.
struct Tail {
  double p = 50;
  double value = 0;
  std::size_t samples = 0;
};
Tail tail_percentile(const std::vector<double>& v, double preferred);

// --- span recorder ------------------------------------------------------------

// Spans kept in memory for one traced op: name, start, end and the parent span
// that caused it. All spans of an op share the op's root. Self time is a
// span's duration minus the part its direct children cover.
class SpanRecorder {
 public:
  std::size_t begin(const char* name);
  void end(std::size_t id);

  // Clears the spans of the previous op and opens a new root span.
  void start_op(const char* name);
  // Closes the root and folds this op's spans into the per-name totals.
  void finish_op();

  // Mean inclusive / self microseconds per op, keyed by span name.
  double inclusive_us(const std::string& name) const;
  double self_us(const std::string& name) const;
  // Worst (most negative) root self time seen, for the layer-split self-test.
  double min_root_self_us() const { return min_root_self_us_; }

 private:
  struct Span {
    const char* name;
    std::size_t parent;
    Clock::time_point start, end;
    double child_us = 0;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<Span> spans_;
  std::size_t open_ = kNone;
  std::map<std::string, double> incl_total_, self_total_;
  std::size_t ops_ = 0;
  double min_root_self_us_ = 0;
};

// RAII span.
class Span {
 public:
  Span(SpanRecorder* rec, const char* name) : rec_(rec), id_(rec ? rec->begin(name) : 0) {}
  ~Span() {
    if (rec_) rec_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
  std::size_t id_;
};

// Times one call in microseconds.
template <typename F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return since_us(t0);
}

// --- report -------------------------------------------------------------------

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Facts about the run that are not metrics: host fingerprint, the tail
  // percentile used and its sample count, the layer-split figures.
  std::map<std::string, std::string> record;

  void fail(const std::string& why);
  // op_p50_ms, op_tail_ms (+ record of the percentile and sample count).
  void latency(const std::vector<double>& op_ms, double tail_p);
};

// substrate.threads / substrate.isa metrics and the host fingerprint record.
void fingerprint(Report& rep);

// Per-op deltas of the substrate counters (obs::substrate_registry(): pool
// fan-outs and NTT dispatches) over the first kPrefixOps ops: call at_op(i)
// before op i and finish() after the phase.
class PrefixCounters {
 public:
  void at_op(std::size_t i);
  void finish(std::size_t ops, Report& rep);

 private:
  obs::Registry before_, after_;
  std::size_t ops_ = 0;
  bool done_ = false;
};

// Runs a closed loop until `seconds` of wall time have passed (at least one
// op). op(i) returns op i's latency in ms; loop time outside that window
// (result checking) is excluded from the returned busy seconds.
template <typename Op>
double closed_loop(double seconds, Op&& op, std::vector<double>& op_ms) {
  const auto start = Clock::now();
  double excluded_ms = 0;
  std::size_t i = 0;
  do {
    const auto t0 = Clock::now();
    const double ms = op(i++);
    op_ms.push_back(ms);
    excluded_ms += since_ms(t0) - ms;
  } while (since_ms(start) < seconds * 1e3);
  return (since_ms(start) - excluded_ms) / 1e3;
}

// The untraced closed loop of a functional workload: op_p50_ms, op_tail_ms,
// ops_per_s and the prefix counters. Returns the op latencies.
template <typename Op>
std::vector<double> untraced_phase(double seconds, double tail_p, Op&& op, Report& rep) {
  std::vector<double> op_ms;
  PrefixCounters prefix;
  const double busy_s = closed_loop(seconds, [&](std::size_t i) {
    prefix.at_op(i);
    return op(i);
  }, op_ms);
  prefix.finish(op_ms.size(), rep);
  rep.latency(op_ms, tail_p);
  rep.metrics["ops_per_s"] = static_cast<double>(op_ms.size()) / busy_s;
  return op_ms;
}

// Traced-run bookkeeping shared by the span-split workloads: the figures the
// layer-split self-test reads and trace.overhead_frac against the untraced
// latencies.
void record_split(const SpanRecorder& rec, const char* root,
                  const std::vector<double>& untraced_ms,
                  const std::vector<double>& traced_ms, Report& rep);

// Times repeated calls of setup() and reports their median as setup_s;
// returns the last result.
template <typename Setup>
auto repeated_setup(Setup&& setup, Report& rep) {
  std::vector<double> secs;
  double total = 0;
  decltype(setup()) state{};
  while (secs.size() < kSetupMinRepeats ||
         (total < kSetupMinSeconds && secs.size() < kSetupMaxRepeats)) {
    state = {};
    const auto t0 = Clock::now();
    state = setup();
    secs.push_back(since_ms(t0) / 1e3);
    total += secs.back();
  }
  rep.metrics["setup_s"] = median(secs);
  rep.record["setup_repeats"] = std::to_string(secs.size());
  return state;
}

double peak_rss_mb();

void run_ckks_helr(const Options& opt, Report& rep);
void run_ckks_client(const Options& opt, Report& rep);
void run_tfhe_gates(const Options& opt, Report& rep);
void run_sim_serve(const Options& opt, Report& rep);

}  // namespace perfbench
