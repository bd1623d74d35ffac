#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "obs/timeline.h"

namespace alchemist::obs {

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

void write_kv_maps(std::ostream& out, const SpanRecord& s) {
  out << "\"attrs\":{";
  bool first = true;
  for (const auto& [k, v] : s.attrs) {
    if (!first) out << ',';
    first = false;
    out << json_string(k) << ':' << json_string(v);
  }
  out << "},\"num\":{";
  first = true;
  for (const auto& [k, v] : s.num_attrs) {
    if (!first) out << ',';
    first = false;
    out << json_string(k) << ':' << json_number(v);
  }
  out << '}';
}

void write_span(std::ostream& out, const SpanRecord& s) {
  out << "{\"trace\":\"" << hex_id(s.trace_id) << "\",\"span\":\""
      << hex_id(s.span_id) << "\",\"parent\":\"" << hex_id(s.parent_span)
      << "\",\"name\":" << json_string(s.name)
      << ",\"kind\":" << json_string(s.kind)
      << ",\"track\":" << json_string(s.track) << ",\"clock\":\""
      << to_string(s.clock) << "\",\"ts\":" << json_number(s.ts)
      << ",\"dur\":" << json_number(s.dur) << ',';
  write_kv_maps(out, s);
  out << '}';
}

// Canonical export order so the same logical trace always serialises the
// same way regardless of which worker thread recorded which span first.
std::vector<const SpanRecord*> canonical_order(
    const std::vector<SpanRecord>& spans) {
  std::vector<const SpanRecord*> sorted;
  sorted.reserve(spans.size());
  for (const SpanRecord& s : spans) sorted.push_back(&s);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     if (a->trace_id != b->trace_id)
                       return a->trace_id < b->trace_id;
                     if (a->clock != b->clock) return a->clock < b->clock;
                     if (a->ts != b->ts) return a->ts < b->ts;
                     return a->span_id < b->span_id;
                   });
  return sorted;
}

}  // namespace

void write_spans_json(std::ostream& out, const std::vector<SpanRecord>& spans,
                      std::uint64_t recorded, std::uint64_t dropped,
                      const std::string& tool) {
  out << "{\"schema\":\"" << kSpansSchema
      << "\",\"tool\":" << json_string(tool)
      << ",\"recorded\":" << json_number(recorded)
      << ",\"dropped\":" << json_number(dropped)
      << ",\"count\":" << json_number(static_cast<std::uint64_t>(spans.size()))
      << ",\"spans\":[\n";
  bool first = true;
  for (const SpanRecord* s : canonical_order(spans)) {
    if (!first) out << ",\n";
    first = false;
    write_span(out, *s);
  }
  out << "\n]}\n";
}

std::string spans_json(const std::vector<SpanRecord>& spans,
                       std::uint64_t recorded, std::uint64_t dropped,
                       const std::string& tool) {
  std::ostringstream out;
  write_spans_json(out, spans, recorded, dropped, tool);
  return out.str();
}

bool write_spans_file(const std::string& path, const TraceSink& sink,
                      const std::string& tool) {
  std::ofstream out(path);
  if (!out) return false;
  write_spans_json(out, sink.snapshot(), sink.recorded(), sink.dropped(), tool);
  return out.good();
}

std::string tracez_json(const TraceSink& sink, std::size_t recent_n,
                        std::size_t slowest_n,
                        const std::string& class_filter) {
  const std::vector<SpanRecord> spans = sink.snapshot();

  auto span_class = [](const SpanRecord& s) -> std::string {
    for (const auto& [k, v] : s.attrs) {
      if (k == "class") return v;
    }
    return "";
  };

  std::ostringstream out;
  out << "{\"recorded\":" << json_number(sink.recorded())
      << ",\"dropped\":" << json_number(sink.dropped())
      << ",\"capacity\":"
      << json_number(static_cast<std::uint64_t>(sink.capacity()));

  // Recent spans: newest first (the snapshot is oldest-first).
  out << ",\"recent\":[";
  bool first = true;
  std::size_t emitted = 0;
  for (auto it = spans.rbegin(); it != spans.rend() && emitted < recent_n;
       ++it) {
    if (!class_filter.empty() && span_class(*it) != class_filter) continue;
    if (!first) out << ',';
    first = false;
    write_span(out, *it);
    ++emitted;
  }
  out << ']';

  // Slowest root job spans (no parent) grouped by workload class.
  std::map<std::string, std::vector<const SpanRecord*>> by_class;
  for (const SpanRecord& s : spans) {
    if (s.parent_span != 0) continue;
    const std::string cls = span_class(s);
    if (!class_filter.empty() && cls != class_filter) continue;
    by_class[cls.empty() ? "(unclassified)" : cls].push_back(&s);
  }
  out << ",\"slowest\":{";
  first = true;
  for (auto& [cls, roots] : by_class) {
    std::stable_sort(roots.begin(), roots.end(),
                     [](const SpanRecord* a, const SpanRecord* b) {
                       return a->dur > b->dur;
                     });
    if (roots.size() > slowest_n) roots.resize(slowest_n);
    if (!first) out << ',';
    first = false;
    out << json_string(cls) << ":[";
    bool first_root = true;
    for (const SpanRecord* s : roots) {
      if (!first_root) out << ',';
      first_root = false;
      write_span(out, *s);
    }
    out << ']';
  }
  out << "}}";
  return out.str();
}

void merge_spans_into_timeline(const std::vector<SpanRecord>& spans,
                               Timeline& timeline, std::uint32_t tid_base) {
  // Stable track -> tid assignment in canonical span order.
  std::map<std::string, std::uint32_t> track_tids;
  const std::vector<const SpanRecord*> sorted = canonical_order(spans);
  for (const SpanRecord* s : sorted) {
    const std::string track = s->track.empty() ? s->kind : s->track;
    auto [it, inserted] = track_tids.emplace(
        track, tid_base + static_cast<std::uint32_t>(track_tids.size()));
    if (inserted) {
      timeline.set_track_name(it->second, "span/" + track);
    }
    TraceEvent ev;
    ev.name = s->name;
    ev.cat = s->kind;
    ev.tid = it->second;
    ev.ts = s->ts;
    ev.dur = s->dur;
    ev.str_args.emplace_back("trace", hex_id(s->trace_id));
    ev.str_args.emplace_back("span", hex_id(s->span_id));
    ev.str_args.emplace_back("parent", hex_id(s->parent_span));
    ev.str_args.emplace_back("clock", to_string(s->clock));
    for (const auto& [k, v] : s->attrs) ev.str_args.emplace_back(k, v);
    for (const auto& [k, v] : s->num_attrs) ev.num_args.emplace_back(k, v);
    timeline.record(ev);
  }

  // Per-trace flow arrows: queue span end -> each attempt start, in wall-us
  // clock only (cycle-domain spans live on their own time base).
  std::map<std::uint64_t, const SpanRecord*> queue_spans;
  for (const SpanRecord* s : sorted) {
    if (s->name == "queue" && s->clock == SpanClock::WallUs) {
      queue_spans.emplace(s->trace_id, s);
    }
  }
  for (const SpanRecord* s : sorted) {
    if (s->name != "attempt" || s->clock != SpanClock::WallUs) continue;
    const auto it = queue_spans.find(s->trace_id);
    if (it == queue_spans.end()) continue;
    const SpanRecord* q = it->second;
    const std::string q_track = q->track.empty() ? q->kind : q->track;
    const std::string a_track = s->track.empty() ? s->kind : s->track;
    timeline.record_flow({"job", "svc.flow", s->trace_id,
                          track_tids.at(q_track), q->ts + q->dur * 0.5, 's'});
    timeline.record_flow({"job", "svc.flow", s->trace_id,
                          track_tids.at(a_track), s->ts + s->dur * 0.5, 'f'});
  }
}

}  // namespace alchemist::obs
