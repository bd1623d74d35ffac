// Cooperative cancellation, deadlines and checkpoint/resume for both
// simulator engines. The load-bearing property pinned here: a run that is
// interrupted at an arbitrary step boundary and resumed from its checkpoint
// produces a SimResult bit-identical to an uninterrupted run — including
// under an active fault model, whose RNG draws must replay exactly.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "arch/config.h"
#include "common/serdes.h"
#include "fault/fault_model.h"
#include "metaop/op_graph.h"
#include "sim/alchemist_sim.h"
#include "sim/checkpoint.h"
#include "sim/event_sim.h"
#include "sim/sim_control.h"
#include "workloads/ckks_workloads.h"

namespace alchemist {
namespace {

metaop::OpGraph keyswitch_graph() {
  return workloads::build_keyswitch(workloads::CkksWl::paper(16));
}

sim::SimResult run_engine(bool event, const metaop::OpGraph& g,
                          const arch::ArchConfig& cfg,
                          fault::FaultModel* fault = nullptr,
                          sim::SimControl* control = nullptr) {
  return event ? sim::simulate_alchemist_events(g, cfg, nullptr, fault, control)
               : sim::simulate_alchemist(g, cfg, nullptr, fault, control);
}

void expect_same_result(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.time_us, b.time_us);  // exact: resumed runs must be bit-identical
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.registry.counters(), b.registry.counters());
}

TEST(CancelToken, StopReasons) {
  sim::CancelToken token;
  EXPECT_EQ(token.should_stop(), sim::StopReason::None);

  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(token.should_stop(), sim::StopReason::DeadlineExpired);
  token.clear_deadline();
  EXPECT_EQ(token.should_stop(), sim::StopReason::None);

  token.request_cancel();
  EXPECT_EQ(token.should_stop(), sim::StopReason::Cancelled);
  // Cancellation wins over an expired deadline.
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(token.should_stop(), sim::StopReason::Cancelled);
}

TEST(SimControl, PreCancelledRunStopsAtStepZero) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::CancelToken token;
  token.request_cancel();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.cancel = &token;
  ctl.checkpoint = &cp;
  for (bool event : {false, true}) {
    cp.clear();
    try {
      run_engine(event, g, cfg, nullptr, &ctl);
      FAIL() << "expected CancelledError";
    } catch (const sim::CancelledError& e) {
      EXPECT_EQ(e.reason(), sim::StopReason::Cancelled);
      EXPECT_EQ(e.step(), 0u);
    }
    EXPECT_TRUE(cp.valid());
    EXPECT_EQ(cp.step, 0u);
  }
}

TEST(SimControl, UnlimitedBudgetMatchesPlainRun) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (bool event : {false, true}) {
    const sim::SimResult ref = run_engine(event, g, cfg);
    sim::SimControl ctl;  // no token, no budget, no checkpoint
    expect_same_result(run_engine(event, g, cfg, nullptr, &ctl), ref);
  }
}

void check_resume_bit_identical(bool event, bool with_fault) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  fault::FaultConfig fc;
  fc.seed = 0xdead'beefull;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = 5e-9;

  std::unique_ptr<fault::FaultModel> ref_fault, run_fault;
  if (with_fault) {
    ref_fault = std::make_unique<fault::FaultModel>(fc, cfg.num_units);
    run_fault = std::make_unique<fault::FaultModel>(fc, cfg.num_units);
  }
  const sim::SimResult ref = run_engine(event, g, cfg, ref_fault.get());

  // Interrupt after every possible number of steps and resume each time.
  for (std::uint64_t budget = 1;; ++budget) {
    sim::Checkpoint cp;
    sim::SimControl ctl;
    ctl.max_steps = budget;
    ctl.checkpoint = &cp;
    if (run_fault) run_fault->reset();
    sim::SimResult result;
    try {
      result = run_engine(event, g, cfg, run_fault.get(), &ctl);
      expect_same_result(result, ref);  // budget outlived the run
      EXPECT_GE(budget, 1u);
      return;
    } catch (const sim::CancelledError& e) {
      ASSERT_EQ(e.reason(), sim::StopReason::StepBudget);
      ASSERT_TRUE(cp.valid());
      ASSERT_EQ(cp.step, budget);  // the cursor is the executed step count
    }
    // Resume with no budget: must land exactly on the reference.
    sim::SimControl resume;
    resume.checkpoint = &cp;
    if (run_fault) run_fault->reset();
    expect_same_result(run_engine(event, g, cfg, run_fault.get(), &resume), ref);
  }
}

TEST(SimControl, LevelEngineResumeBitIdentical) {
  check_resume_bit_identical(false, false);
}
TEST(SimControl, LevelEngineResumeBitIdenticalWithFaults) {
  check_resume_bit_identical(false, true);
}
TEST(SimControl, EventEngineResumeBitIdentical) {
  check_resume_bit_identical(true, false);
}
TEST(SimControl, EventEngineResumeBitIdenticalWithFaults) {
  check_resume_bit_identical(true, true);
}

TEST(SimControl, ChainedResumesReachReference) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (bool event : {false, true}) {
    const sim::SimResult ref = run_engine(event, g, cfg);
    sim::Checkpoint cp;
    sim::SimResult result;
    bool done = false;
    std::size_t legs = 0;
    while (!done) {
      sim::SimControl ctl;
      ctl.max_steps = 2;  // fresh two-step budget per leg
      ctl.checkpoint = &cp;
      try {
        result = run_engine(event, g, cfg, nullptr, &ctl);
        done = true;
      } catch (const sim::CancelledError&) {
        ASSERT_TRUE(cp.valid());
      }
      ASSERT_LT(++legs, 100u) << "chained resume did not terminate";
    }
    EXPECT_GT(legs, 1u) << "workload too small to exercise chained resume";
    expect_same_result(result, ref);
  }
}

TEST(SimControl, IntervalCheckpointResumes) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (bool event : {false, true}) {
    const sim::SimResult ref = run_engine(event, g, cfg);
    // A completed run leaves its last interval snapshot behind; resuming
    // from it replays every step and still matches the reference.
    sim::Checkpoint cp;
    sim::SimControl ctl;
    ctl.checkpoint_interval = 1;
    ctl.checkpoint = &cp;
    expect_same_result(run_engine(event, g, cfg, nullptr, &ctl), ref);
    ASSERT_TRUE(cp.valid());
    EXPECT_GT(cp.step, 0u);

    sim::SimControl resume;
    resume.checkpoint = &cp;
    expect_same_result(run_engine(event, g, cfg, nullptr, &resume), ref);
  }
}

TEST(Checkpoint, SerializeRoundtrip) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.max_steps = 1;
  ctl.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl),
               sim::CancelledError);
  ASSERT_TRUE(cp.valid());

  const std::vector<std::uint8_t> bytes = cp.serialize();
  const sim::Checkpoint back = sim::Checkpoint::deserialize(bytes);
  EXPECT_EQ(back.engine, cp.engine);
  EXPECT_EQ(back.workload, cp.workload);
  EXPECT_EQ(back.op_count, cp.op_count);
  EXPECT_EQ(back.fingerprint, cp.fingerprint);
  EXPECT_EQ(back.step, cp.step);

  // A deserialized checkpoint must actually resume.
  sim::Checkpoint resumable = back;
  sim::SimControl resume;
  resume.checkpoint = &resumable;
  expect_same_result(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &resume),
                     sim::simulate_alchemist(g, cfg));
}

TEST(Checkpoint, RejectsCorruption) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.max_steps = 1;
  ctl.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl),
               sim::CancelledError);
  const std::vector<std::uint8_t> bytes = cp.serialize();

  // Empty and truncated buffers.
  EXPECT_THROW(sim::Checkpoint::deserialize({}), sim::CheckpointError);
  for (std::size_t keep : {1ul, 8ul, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(sim::Checkpoint::deserialize(cut), sim::CheckpointError);
  }
  // Every single-byte flip must be caught (magic, framing or the footer).
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_THROW(sim::Checkpoint::deserialize(bad), sim::CheckpointError)
        << "flip at byte " << i << " not detected";
  }
  // Trailing garbage.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(sim::Checkpoint::deserialize(padded), sim::CheckpointError);
}

TEST(Checkpoint, RejectsMismatchedResume) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.max_steps = 1;
  ctl.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl),
               sim::CancelledError);
  ASSERT_TRUE(cp.valid());

  // Wrong engine.
  {
    sim::Checkpoint c = cp;
    sim::SimControl r;
    r.checkpoint = &c;
    EXPECT_THROW(sim::simulate_alchemist_events(g, cfg, nullptr, nullptr, &r),
                 sim::CheckpointError);
  }
  // Wrong workload.
  {
    const metaop::OpGraph other =
        workloads::build_pmult(workloads::CkksWl::paper(16));
    sim::Checkpoint c = cp;
    sim::SimControl r;
    r.checkpoint = &c;
    EXPECT_THROW(sim::simulate_alchemist(other, cfg, nullptr, nullptr, &r),
                 sim::CheckpointError);
  }
  // Wrong machine geometry.
  {
    arch::ArchConfig smaller = cfg;
    smaller.num_units = cfg.num_units / 2;
    sim::Checkpoint c = cp;
    sim::SimControl r;
    r.checkpoint = &c;
    EXPECT_THROW(sim::simulate_alchemist(g, smaller, nullptr, nullptr, &r),
                 sim::CheckpointError);
  }
  // Fault configuration appeared that the checkpoint was not taken under.
  {
    fault::FaultConfig fc;
    fc.compute_fault_rate = 1e-9;
    fault::FaultModel fm(fc, cfg.num_units);
    sim::Checkpoint c = cp;
    sim::SimControl r;
    r.checkpoint = &c;
    EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, &fm, &r),
                 sim::CheckpointError);
  }
}

// A checkpoint one step past the last one a completed run leaves behind is
// past the end of the schedule on either engine.
TEST(Checkpoint, RejectsStepPastEndOfSchedule) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (bool event : {false, true}) {
    sim::Checkpoint cp;
    sim::SimControl ctl;
    ctl.checkpoint_interval = 1;
    ctl.checkpoint = &cp;
    run_engine(event, g, cfg, nullptr, &ctl);
    ASSERT_TRUE(cp.valid());
    ++cp.step;
    sim::SimControl resume;
    resume.checkpoint = &cp;
    EXPECT_THROW(run_engine(event, g, cfg, nullptr, &resume), sim::CheckpointError)
        << (event ? "event" : "level") << " engine";
  }
}

// An empty graph takes each engine's normal path: its checkpoint is
// validated, its registry is finalized and an attached profiler reports every
// unit.
TEST(Checkpoint, EmptyGraphRunsTheFullPathOnBothEngines) {
  metaop::OpGraph g;
  g.name = "empty";
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (bool event : {false, true}) {
    const char* engine = event ? "event" : "level";
    sim::Checkpoint cp;
    cp.engine = sim::kLevelEngine;
    cp.workload = "other";
    cp.step = 3;
    sim::SimControl resume;
    resume.checkpoint = &cp;
    EXPECT_THROW(run_engine(event, g, cfg, nullptr, &resume), sim::CheckpointError)
        << engine;

    sim::UnitProfiler unit;
    sim::MemProfiler mem;
    const sim::SimResult r =
        event ? sim::simulate_alchemist_events(g, cfg, nullptr, nullptr, nullptr,
                                               &unit, &mem)
              : sim::simulate_alchemist(g, cfg, nullptr, nullptr, nullptr, &unit,
                                        &mem);
    ASSERT_EQ(r.registry.counters().count(sim::metrics::kCycles), 1u) << engine;
    EXPECT_EQ(r.registry.counter(sim::metrics::kCycles), 0u) << engine;
    EXPECT_TRUE(r.profile.enabled()) << engine;
    EXPECT_EQ(r.profile.units.size(), 128u) << engine;
    EXPECT_TRUE(r.mem_profile.enabled()) << engine;
  }
}

// Schema v4 dropped the engine-specific state blob: a checkpoint is its step
// count. Older streams — v2's accumulator blob, v3's cursor blob — must fail
// with a typed error, never resume wrong.
TEST(Checkpoint, RejectsSchemaV2LevelCheckpoint) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.max_steps = 2;
  ctl.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl),
               sim::CancelledError);
  ASSERT_TRUE(cp.valid());

  // A v2 level state: cursor, cycle/transpose/busy totals, HBM bytes,
  // per-class arrays, fault totals, empty registry, no profiler frame.
  BinaryWriter v2;
  v2.write_u64(cp.step);
  for (int i = 0; i < 3; ++i) v2.write_u64(1000);
  v2.write_double(0.0);
  v2.write_u64_vector(std::vector<std::uint64_t>(metaop::kNumOpClasses, 0));
  v2.write_u64_vector(std::vector<std::uint64_t>(metaop::kNumOpClasses, 0));
  for (int i = 0; i < 7; ++i) v2.write_u64(0);
  v2.write_u64(0);  // counters
  v2.write_u64(0);  // gauges
  v2.write_u8(0);   // no MemProfiler frame
  // A v3 level state: the level cursor alone.
  BinaryWriter v3;
  v3.write_u64(cp.step);

  // Each framed under its own header with a valid integrity footer.
  for (const auto& [version, state] :
       {std::pair<std::uint64_t, std::vector<std::uint8_t>>{2, v2.buffer()},
        {3, v3.buffer()}}) {
    BinaryWriter framed;
    framed.write_u64(0x414c'4348'434b'5031ull);  // "ALCHCKP1"
    framed.write_u64(version);
    framed.write_tag(cp.engine);
    framed.write_tag(cp.workload);
    framed.write_u64(cp.op_count);
    framed.write_u64(cp.fingerprint);
    framed.write_u64(cp.step);
    framed.write_bytes(state);
    framed.write_u64(framed.checksum_since(0));
    EXPECT_THROW(sim::Checkpoint::deserialize(framed.buffer()), sim::CheckpointError)
        << "v" << version;
  }
}

}  // namespace
}  // namespace alchemist
