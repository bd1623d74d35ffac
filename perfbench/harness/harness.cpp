#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <sched.h>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "obs/substrate_metrics.h"

namespace perfbench {

namespace {

obs::Registry substrate_snapshot() { return alchemist::obs::substrate_registry(); }

std::uint64_t ntt_dispatches(const obs::Registry& reg) {
  std::uint64_t sum = 0;
  for (const auto& [key, count] : reg.counters()) {
    if (key.rfind("substrate.isa_dispatch", 0) == 0 &&
        (key.find("kernel=ntt_fwd") != std::string::npos ||
         key.find("kernel=ntt_inv") != std::string::npos)) {
      sum += count;
    }
  }
  return sum;
}

}  // namespace

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Tail tail_percentile(const std::vector<double>& v, double preferred) {
  static constexpr double kLadder[] = {50, 75, 90, 95, 99};
  Tail t;
  t.samples = v.size();
  for (double p : kLadder) {
    if (p <= preferred && static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) t.p = p;
  }
  t.value = percentile(v, t.p);
  return t;
}

std::size_t SpanRecorder::begin(const char* name) {
  spans_.push_back(Span{name, open_, Clock::now(), {}, 0});
  open_ = spans_.size() - 1;
  return open_;
}

void SpanRecorder::end(std::size_t id) {
  Span& s = spans_.at(id);
  if (id != open_) throw std::logic_error("SpanRecorder: spans closed out of order");
  s.end = Clock::now();
  if (s.parent != kNone) spans_[s.parent].child_us += since_us(s.start, s.end);
  open_ = s.parent;
}

void SpanRecorder::start_op(const char* name) {
  spans_.clear();
  open_ = kNone;
  begin(name);
}

void SpanRecorder::finish_op() {
  end(0);
  for (const Span& s : spans_) {
    const double incl = since_us(s.start, s.end);
    incl_total_[s.name] += incl;
    self_total_[s.name] += incl - s.child_us;
  }
  const Span& root = spans_[0];
  const double root_us = since_us(root.start, root.end);
  ++ops_;
  min_root_self_us_ = std::min(min_root_self_us_, root_us - root.child_us);
}

double SpanRecorder::inclusive_us(const std::string& name) const {
  const auto it = incl_total_.find(name);
  return it == incl_total_.end() ? 0 : it->second / static_cast<double>(ops_);
}

double SpanRecorder::self_us(const std::string& name) const {
  const auto it = self_total_.find(name);
  return it == self_total_.end() ? 0 : it->second / static_cast<double>(ops_);
}

void Report::fail(const std::string& why) {
  ++failed;
  correct = false;
  if (record.count("first_failure") == 0) record["first_failure"] = why;
}

void Report::latency(const std::vector<double>& op_ms, double tail_p) {
  metrics["op_p50_ms"] = median(op_ms);
  const Tail t = tail_percentile(op_ms, tail_p);
  metrics["op_tail_ms"] = t.value;
  record["op_tail_percentile"] = std::to_string(t.p);
  record["op_samples"] = std::to_string(t.samples);
}

void PrefixCounters::at_op(std::size_t i) {
  if (i == 0) before_ = substrate_snapshot();
  if (i == kPrefixOps) {
    after_ = substrate_snapshot();
    ops_ = i;
    done_ = true;
  }
}

void PrefixCounters::finish(std::size_t ops, Report& rep) {
  if (!done_) {
    after_ = substrate_snapshot();
    ops_ = ops;
  }
  const auto ops_d = static_cast<double>(ops_);
  auto delta = [&](const char* name) {
    return static_cast<double>(after_.counter(name) - before_.counter(name)) / ops_d;
  };
  rep.metrics["substrate.tasks_per_op"] = delta("substrate.tasks");
  rep.metrics["substrate.parallel_for_per_op"] = delta("substrate.parallel_for");
  rep.metrics["substrate.inline_runs_per_op"] = delta("substrate.inline_runs");
  rep.metrics["poly.ntt.calls_per_op"] =
      static_cast<double>(ntt_dispatches(after_) - ntt_dispatches(before_)) / ops_d;
}

void record_split(const SpanRecorder& rec, const char* root,
                  const std::vector<double>& untraced_ms,
                  const std::vector<double>& traced_ms, Report& rep) {
  rep.metrics["trace.overhead_frac"] = median(traced_ms) / median(untraced_ms) - 1;
  rep.record["split.op_us"] = std::to_string(rec.inclusive_us(root));
  rep.record["split.min_residual_us"] = std::to_string(rec.min_root_self_us());
}

void fingerprint(Report& rep) {
  using alchemist::ThreadPool;
  namespace simd = alchemist::simd;
  const auto isa = simd::active_isa();
  rep.metrics["substrate.threads"] =
      static_cast<double>(ThreadPool::instance().num_threads());
  rep.metrics["substrate.isa"] = static_cast<double>(static_cast<int>(isa));
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  rep.record["nproc"] = std::to_string(nproc);
  rep.record["substrate.threads"] =
      std::to_string(ThreadPool::instance().num_threads());
  rep.record["substrate.isa"] = simd::isa_name(isa);
  rep.record["build_type"] = PERFBENCH_BUILD_TYPE;
  rep.record["compiler"] = PERFBENCH_COMPILER;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

}  // namespace perfbench
