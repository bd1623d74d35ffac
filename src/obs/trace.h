// Distributed-trace substrate: per-job causality for the serving stack.
//
// The metrics layer answers aggregate questions; this header answers "where
// did job #4712 spend its 83 ms?". A TraceContext (trace id, span id, parent
// span) is minted per submitted job and threaded through every layer that
// touches the job: the JobRunner (queue wait, per-attempt run, retry backoff),
// both simulator engines (per-phase and per-op spans via sim::SimControl) and
// the process-wide ThreadPool (fan-out spans adopt the submitting span's
// context through the ambient thread-local below).
//
// Determinism contract:
//   * Ids are minted, never random: trace ids from a seed + submission
//     sequence, span ids from (trace, parent, name, ordinal). Two runs of the
//     same job mix produce the same ids, and the span *tree* (ids, parents,
//     names) is identical for any worker count — only timestamps and track
//     assignments vary. tests/test_svc.cpp pins this across 1-8 workers.
//   * Simulator spans are stamped in machine cycles (SpanClock::Cycles), the
//     engines' native deterministic unit; host-side spans are stamped in wall
//     microseconds from the sink's clock, which tests may replace with a
//     virtual clock (set_clock) for fully reproducible traces.
//   * Recording never changes what it observes: SimResults are bit-identical
//     with tracing on or off, and with no sink attached (or an invalid
//     context) every instrumentation site reduces to a pointer test — the
//     zero-allocation no-op path.
//
// The sink is a bounded MPMC ring: overload drops the oldest spans (counted,
// never blocking the serving path). Exports: a `spans.v1` JSON document
// (standalone or embedded per-run in the metrics report), the /tracez live
// view (recent spans + slowest-N per workload class), and a merge into the
// Chrome-trace Timeline for Perfetto.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/serdes.h"

namespace alchemist::obs {

class Timeline;  // obs/timeline.h

// ----------------------------------------------------------- id minting ----

inline std::uint64_t trace_mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58'476d'1ce4'e5b9ull;
  x ^= x >> 27;
  x *= 0x94d0'49bb'1331'11ebull;
  x ^= x >> 31;
  return x;
}

// Nonzero trace id from a seed (zero means "not traced" everywhere).
inline std::uint64_t mint_trace_id(std::uint64_t seed) {
  const std::uint64_t x = trace_mix64(seed + 0x9e37'79b9'7f4a'7c15ull);
  return x != 0 ? x : 1;
}

// Deterministic span id: same (trace, parent, name, ordinal) -> same id.
inline std::uint64_t mint_span_id(std::uint64_t trace_id, std::uint64_t parent,
                                  std::string_view name, std::uint64_t ordinal) {
  const std::uint64_t x =
      trace_mix64(trace_id ^ (parent * 0x9e37'79b9'7f4a'7c15ull) ^
                  fnv1a(name) ^ (ordinal + 1) * 0xd1b5'4a32'd192'ed03ull);
  return x != 0 ? x : 1;
}

// -------------------------------------------------------------- context ----

// Propagated per-job context: which trace this work belongs to and which span
// is the current parent. An all-zero context means "not traced" and every
// instrumentation site short-circuits on it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;     // the current (innermost) span
  std::uint64_t parent_span = 0; // its parent; 0 = root
  bool valid() const { return trace_id != 0; }
};

// Child context under `parent`: same trace, deterministically minted span id.
inline TraceContext child_context(const TraceContext& parent,
                                  std::string_view name, std::uint64_t ordinal) {
  TraceContext c;
  c.trace_id = parent.trace_id;
  c.parent_span = parent.span_id;
  c.span_id = mint_span_id(parent.trace_id, parent.span_id, name, ordinal);
  return c;
}

// ---------------------------------------------------------------- spans ----

// Which clock a span's ts/dur are in. Simulator spans use deterministic
// machine cycles; host-side spans use the sink clock's wall microseconds.
enum class SpanClock : std::uint8_t { WallUs, Cycles };
inline const char* to_string(SpanClock c) {
  return c == SpanClock::Cycles ? "cycles" : "us";
}

// How much detail the simulator engines emit. Lifecycle = the run span only;
// Phases adds scheduler steps (ASAP levels, checkpoint markers); Ops adds one
// span per high-level operation.
enum class TraceDetail : std::uint8_t { Lifecycle, Phases, Ops };

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  // 0 = root of its trace
  std::string name;               // "job", "queue", "attempt", "level", "ntt"
  std::string kind;               // owning layer: "svc", "sim", "pool"
  std::string track;              // display/overlap lane, e.g. "svc/worker0"
  SpanClock clock = SpanClock::WallUs;
  double ts = 0;
  double dur = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::pair<std::string, double>> num_attrs;
};

// Bounded, thread-safe ring of finished spans. record() is the only hot call:
// one mutex acquisition, no allocation beyond the moved-in record; overflow
// overwrites the oldest span and bumps dropped(). High-volume producers (the
// simulator engines at Phases/Ops detail) buffer locally and use
// record_batch() — one lock per batch instead of per span, which keeps the
// traced svc_soak overhead gate comfortable under worker contention.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        epoch_(std::chrono::steady_clock::now()) {}

  std::size_t capacity() const { return capacity_; }

  // Wall microseconds since sink construction, or the virtual clock when one
  // is installed (deterministic replay in tests).
  double now_us() const {
    std::lock_guard<std::mutex> lk(mu_);
    if (clock_) return clock_();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  void set_clock(std::function<double()> now_us_fn) {
    std::lock_guard<std::mutex> lk(mu_);
    clock_ = std::move(now_us_fn);
  }

  void record(SpanRecord s) {
    std::lock_guard<std::mutex> lk(mu_);
    push_locked(std::move(s));
  }

  // Drains `batch` into the ring under one lock; the caller's vector is
  // cleared but keeps its capacity for reuse.
  void record_batch(std::vector<SpanRecord>& batch) {
    if (batch.empty()) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (SpanRecord& s : batch) push_locked(std::move(s));
    }
    batch.clear();
  }

  std::uint64_t recorded() const {
    std::lock_guard<std::mutex> lk(mu_);
    return recorded_;
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
  }

  // Point-in-time copy, oldest first.
  std::vector<SpanRecord> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<SpanRecord> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    ring_.clear();
    head_ = 0;
    recorded_ = dropped_ = 0;
  }

 private:
  void push_locked(SpanRecord&& s) {
    ++recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(s));
    } else {
      ring_[head_] = std::move(s);
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::function<double()> clock_;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;  // oldest element once the ring is full
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

// ------------------------------------------------- ambient propagation -----

// Thread-local current context: set by the layer that owns the thread's work
// (a JobRunner worker around the simulate call, a test harness) and adopted
// by layers below it that have no explicit plumbing — the ThreadPool stamps
// each top-level parallel_for fan-out as a child span of the ambient context.
// The ordinal counter makes fan-out span ids deterministic: the owning thread
// executes its fan-outs sequentially, so the k-th fan-out under one scope
// always mints the same id.
struct AmbientTrace {
  TraceSink* sink = nullptr;
  TraceContext ctx{};
  std::uint64_t next_ordinal = 0;
  bool active() const { return sink != nullptr && ctx.valid(); }
};

inline AmbientTrace& ambient_trace() {
  thread_local AmbientTrace t_ambient;
  return t_ambient;
}

class ScopedTraceContext {
 public:
  ScopedTraceContext(TraceSink* sink, const TraceContext& ctx)
      : saved_(ambient_trace()) {
    ambient_trace() = AmbientTrace{sink, ctx, 0};
  }
  ~ScopedTraceContext() { ambient_trace() = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  AmbientTrace saved_;
};

// ----------------------------------------------------------- exporters -----
// (implemented in trace.cpp)

inline constexpr const char* kSpansSchema = "spans.v1";

// Standalone spans.v1 JSON document:
//   { "schema": "spans.v1", "tool": ..., "recorded": N, "dropped": N,
//     "spans": [ {"trace":"0x..","span":"0x..","parent":"0x..", ...} ] }
// Spans are sorted by (trace, clock, ts, span) so documents diff cleanly.
void write_spans_json(std::ostream& out, const std::vector<SpanRecord>& spans,
                      std::uint64_t recorded, std::uint64_t dropped,
                      const std::string& tool);
std::string spans_json(const std::vector<SpanRecord>& spans,
                       std::uint64_t recorded, std::uint64_t dropped,
                       const std::string& tool);
bool write_spans_file(const std::string& path, const TraceSink& sink,
                      const std::string& tool);

// /tracez live view: the most recent `recent_n` spans plus the slowest
// `slowest_n` root job spans per workload class (from the "class" attr).
std::string tracez_json(const TraceSink& sink, std::size_t recent_n,
                        std::size_t slowest_n,
                        const std::string& class_filter = "");

// Merge spans into a Chrome-trace Timeline: one named track per SpanRecord
// track (tids from `tid_base` up), slices for every span, and per-trace flow
// arrows linking the queue span to each run attempt. Cycle-clock simulator
// tracks keep their native unit (1 displayed us = 1 cycle, like the
// simulator's own timeline export).
void merge_spans_into_timeline(const std::vector<SpanRecord>& spans,
                               Timeline& timeline,
                               std::uint32_t tid_base = 1000);

}  // namespace alchemist::obs
