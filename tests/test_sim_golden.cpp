// Cross-commit bit-identity gate for the two Alchemist engines.
//
// Every (graph x engine x fault setting) combination below is run with both
// profilers attached and reduced to one FNV-1a digest over everything a run
// reports: the registry counters, the bit patterns of its gauges, the
// memory.v1 profile and the utilization.v1 profile. The expected digests were
// captured from the engines before the simulator core was unified; any change
// to the accounting, the fault sampling order or either profiler shows up as
// a digest mismatch here. A deliberate re-baseline updates the table and says
// why in CHANGES.md.
//
// A second table pins the Timeline content the same way: every slice, counter
// sample and track name of a traced, doubly-profiled run, for a fresh run and
// for a run resumed from a checkpoint taken at half its steps.
//
// A third table pins the modularized baseline accelerators (SHARP,
// CraterLake, Matcha, Strix) by their registry counters and gauge bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/config.h"
#include "common/serdes.h"
#include "fault/fault_model.h"
#include "metaop/op_graph.h"
#include "arch/baselines.h"
#include "obs/timeline.h"
#include "sim/alchemist_sim.h"
#include "sim/baseline_sim.h"
#include "sim/event_sim.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace alchemist {
namespace {

struct Golden {
  const char* graph;
  bool event;
  bool faulted;
  std::uint64_t digest;
};

// Captured at the parent of the unified-core change. The five {event,
// faulted} digests were re-baselined when the event engine's
// sim.transpose.cycles started rounding each op's fractional charge (one
// masked unit) up, as the level engine does, instead of truncating it.
constexpr Golden kGolden[] = {
    {"bootstrap", false, false, 0x344580cd4acb6c01ull},
    {"bootstrap", false, true, 0x87ecbd52c4ee58bcull},
    {"bootstrap", true, false, 0x9b2a303880339a3cull},
    {"bootstrap", true, true, 0xb3e8bbb05c2e8891ull},
    {"helr", false, false, 0xfcdfebf3fe4fa3d2ull},
    {"helr", false, true, 0xab09c19d9dfbd394ull},
    {"helr", true, false, 0x6db3361f81527be9ull},
    {"helr", true, true, 0x48ae023ef9e82122ull},
    {"lola_mnist", false, false, 0xbad1c322c6fb7d04ull},
    {"lola_mnist", false, true, 0xe16aef4c37ea5f47ull},
    {"lola_mnist", true, false, 0xfef3c0483ad88415ull},
    {"lola_mnist", true, true, 0x5bde597f99401191ull},
    {"pbs_i", false, false, 0xf788d65bae906bf0ull},
    {"pbs_i", false, true, 0x9b5ea3bd2dd1ee70ull},
    {"pbs_i", true, false, 0xc0fb2ca4db47302eull},
    {"pbs_i", true, true, 0x2a4768ef1163389cull},
    {"keyswitch", false, false, 0x730ffd1304028245ull},
    {"keyswitch", false, true, 0x37b14f6fa28f069dull},
    {"keyswitch", true, false, 0x68416f8be86a1dd8ull},
    {"keyswitch", true, true, 0x50c131693b4348c7ull},
};

metaop::OpGraph build(const std::string& name) {
  if (name == "bootstrap") {
    return workloads::build_bootstrapping(workloads::CkksWl::paper(44), true);
  }
  if (name == "helr") {
    return workloads::build_helr_iteration(workloads::CkksWl::paper(30));
  }
  if (name == "lola_mnist") return workloads::build_lola_mnist(true);
  if (name == "pbs_i") return workloads::build_pbs(workloads::TfheWl::set_i());
  return workloads::build_keyswitch(workloads::CkksWl::paper(44));
}

// Detect-retry with one permanently masked unit and transient rates high
// enough that every graph draws faults.
fault::FaultConfig faulted_config() {
  fault::FaultConfig fc;
  fc.seed = 0x601d'd16e'57ull;
  fc.compute_fault_rate = 2e-8;
  fc.sram_fault_rate = 2e-10;
  fc.hbm_fault_rate = 1e-10;
  fc.masked_units = {5};
  fc.policy = fault::Policy::DetectRetry;
  return fc;
}

void write_registry(BinaryWriter& w, const obs::Registry& reg) {
  for (const auto& [key, value] : reg.counters()) {
    w.write_tag(key);
    w.write_u64(value);
  }
  for (const auto& [key, value] : reg.gauges()) {
    w.write_tag(key);
    w.write_double(value);  // bit pattern, not a rounded value
  }
}

void write_memory(BinaryWriter& w, const obs::MemoryProfile& m) {
  w.write_u8(m.active ? 1 : 0);
  w.write_u64(m.total_cycles);
  w.write_u64(m.total_bytes);
  for (const auto& [operand, classes] : m.attributed) {
    for (const auto& [cls, bytes] : classes) {
      w.write_tag(operand);
      w.write_tag(cls);
      w.write_u64(bytes);
    }
  }
  for (const auto& [id, k] : m.keys) {
    w.write_u64(id);
    w.write_tag(k.operand);
    w.write_u64(k.fetches);
    w.write_u64(k.total_bytes);
    w.write_u64(k.refetch_bytes);
  }
  for (double b : m.bw_util) w.write_double(b);
  for (std::uint64_t o : m.occupancy_bytes) w.write_u64(o);
  w.write_u64(m.scratch_capacity_bytes);
  w.write_u64(m.scratch_peak_bytes);
  w.write_u64(m.evictions);
}

void write_utilization(BinaryWriter& w, const obs::UtilizationProfile& p) {
  w.write_u64(p.total_cycles);
  w.write_u64(p.units.size());
  for (const obs::UnitCycles& u : p.units) {
    w.write_u64(u.busy);
    w.write_u64(u.reduction);
    w.write_u64(u.stall_scratchpad);
    w.write_u64(u.stall_dependency);
    w.write_u64(u.idle);
    for (const auto& [cls, cycles] : u.class_occupied) {
      w.write_tag(cls);
      w.write_u64(cycles);
    }
  }
}

std::uint64_t digest(const sim::SimResult& r) {
  BinaryWriter w;
  write_registry(w, r.registry);
  write_memory(w, r.mem_profile);
  write_utilization(w, r.profile);
  return fnv1a(w.buffer());
}

void write_timeline(BinaryWriter& w, const obs::Timeline& tl) {
  for (const obs::TraceEvent& e : tl.events()) {
    w.write_tag(e.name);
    w.write_tag(e.cat);
    w.write_u64(e.tid);
    w.write_double(e.ts);
    w.write_double(e.dur);
    for (const auto& [key, value] : e.num_args) {
      w.write_tag(key);
      w.write_double(value);
    }
    for (const auto& [key, value] : e.str_args) {
      w.write_tag(key);
      w.write_tag(value);
    }
  }
  for (const obs::CounterEvent& c : tl.counter_events()) {
    w.write_tag(c.name);
    w.write_u64(c.tid);
    w.write_double(c.ts);
    for (const auto& [series, value] : c.series) {
      w.write_tag(series);
      w.write_double(value);
    }
  }
  for (const auto& [tid, name] : tl.track_names()) {
    w.write_u64(tid);
    w.write_tag(name);
  }
}

std::string hex(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull", static_cast<unsigned long long>(d));
  return buf;
}

sim::SimResult run(const Golden& g) {
  const metaop::OpGraph graph = build(g.graph);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  fault::FaultModel model(faulted_config(), cfg.num_units);
  fault::FaultModel* fm = g.faulted ? &model : nullptr;
  sim::UnitProfiler unit;
  sim::MemProfiler mem;
  return g.event
             ? sim::simulate_alchemist_events(graph, cfg, nullptr, fm, nullptr,
                                              &unit, &mem)
             : sim::simulate_alchemist(graph, cfg, nullptr, fm, nullptr, &unit,
                                       &mem);
}

TEST(SimGolden, DigestsMatchPinnedBaseline) {
  for (const Golden& g : kGolden) {
    const sim::SimResult r = run(g);
    ASSERT_TRUE(r.profile.enabled()) << g.graph;
    ASSERT_TRUE(r.mem_profile.enabled()) << g.graph;
    if (g.faulted) {
      // Non-vacuous: the seeded model must actually inject and retry.
      EXPECT_GT(r.registry.counter(fault::metrics::kInjected), 0u) << g.graph;
      EXPECT_GT(r.registry.counter(fault::metrics::kRetries), 0u) << g.graph;
    }
    const std::uint64_t d = digest(r);
    EXPECT_EQ(d, g.digest) << g.graph << (g.event ? " event" : " level")
                           << (g.faulted ? " faulted" : " fault-free")
                           << ": digest " << hex(d);
  }
}

struct TimelineGolden {
  const char* graph;
  bool event;
  bool resumed;
  std::uint64_t digest;
};

// Captured at the parent of the Schedule change. The two {event, resumed}
// digests were re-baselined when a resumed event trace stopped re-slicing
// the keys of the ops its replayed steps retired.
constexpr TimelineGolden kTimelineGolden[] = {
    {"keyswitch", false, false, 0x57408db0b1aa25b7ull},
    {"keyswitch", false, true, 0x8780cba4bcdfd61bull},
    {"keyswitch", true, false, 0x66735544f0c25d28ull},
    {"keyswitch", true, true, 0x8059862a705b6b97ull},
    {"pbs_i", false, false, 0x3883998dfec375adull},
    {"pbs_i", false, true, 0xb65599c805395250ull},
    {"pbs_i", true, false, 0x0da1c86b0b6aac6aull},
    {"pbs_i", true, true, 0x563bc98f83bc8f65ull},
};

sim::SimResult run_traced(const metaop::OpGraph& graph, bool event,
                          obs::Timeline* tl, sim::SimControl* ctl) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::UnitProfiler unit;
  sim::MemProfiler mem;
  return event ? sim::simulate_alchemist_events(graph, cfg, tl, nullptr, ctl,
                                                &unit, &mem)
               : sim::simulate_alchemist(graph, cfg, tl, nullptr, ctl, &unit,
                                         &mem);
}

TEST(SimGolden, TimelineDigestsMatchPinnedBaseline) {
  for (const TimelineGolden& g : kTimelineGolden) {
    const metaop::OpGraph graph = build(g.graph);
    obs::Timeline tl;
    if (g.resumed) {
      // Count the run's steps, stop a traced run at half of them, and digest
      // only the trace of the leg that resumes from its checkpoint.
      sim::Checkpoint cp;
      sim::SimControl count;
      count.checkpoint = &cp;
      count.checkpoint_interval = 1;
      run_traced(graph, g.event, nullptr, &count);
      const std::uint64_t steps = cp.step;
      ASSERT_GE(steps, 2u) << g.graph;
      cp.clear();
      sim::SimControl first;
      first.checkpoint = &cp;
      first.max_steps = steps / 2;
      obs::Timeline first_tl;
      EXPECT_THROW(run_traced(graph, g.event, &first_tl, &first),
                   sim::CancelledError);
      ASSERT_EQ(cp.step, steps / 2) << g.graph;
      sim::SimControl resume;
      resume.checkpoint = &cp;
      run_traced(graph, g.event, &tl, &resume);
    } else {
      run_traced(graph, g.event, &tl, nullptr);
    }
    ASSERT_FALSE(tl.events().empty()) << g.graph;
    ASSERT_FALSE(tl.counter_events().empty()) << g.graph;
    BinaryWriter w;
    write_timeline(w, tl);
    const std::uint64_t d = fnv1a(w.buffer());
    EXPECT_EQ(d, g.digest) << g.graph << (g.event ? " event" : " level")
                           << (g.resumed ? " resumed" : " fresh")
                           << ": timeline digest " << hex(d);
  }
}

struct ModularGolden {
  const char* graph;
  const char* accelerator;
  std::uint64_t digest;
};

// Captured before the modular model's level walk was removed.
constexpr ModularGolden kModularGolden[] = {
    {"keyswitch", "SHARP", 0x2d3ab6ee5989085cull},
    {"keyswitch", "CraterLake", 0x42eb3c8fbff0b7a1ull},
    {"bootstrap", "SHARP", 0x896e7d5015839b42ull},
    {"bootstrap", "CraterLake", 0x0bfd81908b2809ebull},
    {"helr", "SHARP", 0x8137f5a6dfab4a6cull},
    {"helr", "CraterLake", 0xb99fb529448e38bcull},
    {"pbs_i", "Matcha", 0x14867d4ccf76803full},
    {"pbs_i", "Strix", 0xbc1988ac487fa298ull},
};

TEST(SimGolden, ModularDigestsMatchPinnedBaseline) {
  for (const ModularGolden& g : kModularGolden) {
    const sim::SimResult r =
        sim::simulate_modular(build(g.graph), arch::spec_by_name(g.accelerator));
    ASSERT_GT(r.cycles, 0u) << g.graph << " " << g.accelerator;
    BinaryWriter w;
    write_registry(w, r.registry);
    const std::uint64_t d = fnv1a(w.buffer());
    EXPECT_EQ(d, g.digest) << g.graph << " on " << g.accelerator
                           << ": digest " << hex(d);
  }
  // A dependency that points forward is rejected, not silently reordered.
  metaop::OpGraph bad = build("keyswitch");
  bad.ops.front().deps.push_back(1);
  EXPECT_THROW(sim::simulate_modular(bad, arch::spec_by_name("SHARP")),
               std::invalid_argument);
}

}  // namespace
}  // namespace alchemist
