// UnitProfiler — per-unit cycle attribution for both Alchemist engines.
//
// The profiler partitions every simulated cycle of every computing unit into
// the utilization.v1 buckets (obs/utilization.h): busy, reduction,
// stall:scratchpad (transpose), stall:dependency (waiting inside the
// schedule), idle (no compute mapped, incl. the trailing HBM drain). It is
// strictly an observer: engines feed it copies of quantities they already
// compute, it never feeds anything back, so a profiled run returns a
// bit-identical SimResult (tests pin this).
//
// Two feeding modes, one per engine:
//
//  * Level engine (integer): one add_level() per ASAP level. The pooled-core
//    model spreads a level's W core-cycles uniformly, so unit u receives
//    work_u = W/U + (u < W%U) core-cycles and occupies ceil(work_u/C) cycles
//    of the level's compute wall ceil(W/(U*C)) — never more, since
//    work_u <= ceil(W/U) <= C*ceil(W/(U*C)). The gap to the wall is
//    stall:dependency; the transpose tail stalls every unit (scratchpad).
//
//  * Event engine (fractional): one accrue() per simulation interval with
//    the interval's delivered core-cycles split into reduction/scratchpad
//    shares. Core sharing is uniform across units, so the profiler keeps one
//    set of double accumulators and integerizes per unit at finish() via
//    largest-remainder so each unit's buckets still sum exactly to
//    total_cycles.
//
// finish() pads the residual (trailing HBM stall in the level engine, the
// final ceil() slack in the event engine) into idle, enforcing the exact
// per-unit invariant sum(buckets) == total_cycles.
//
// Checkpoint/resume: the level engine re-feeds every level on resume (the
// levels before the cursor are folded silently), so its profile is
// bit-identical to an uninterrupted run's. The event engine's checkpoint holds
// no interval history, so it drops the profiler on resume and the profile
// comes back empty.
//
// When a Timeline is attached, add_level() additionally emits one counter
// sample per unit per level on the kUtilTidBase+unit tracks (busy/reduction/
// stall fractions of the level wall), rendering as stacked per-unit
// occupancy charts next to the op rows in Perfetto.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "metaop/metaop.h"
#include "obs/timeline.h"
#include "obs/utilization.h"

namespace alchemist::sim {

class UnitProfiler {
 public:
  // Geometry comes from the (possibly fault-degraded) ArchConfig the engine
  // actually simulates.
  void begin(std::size_t num_units, std::size_t cores_per_unit,
             obs::Timeline* timeline = nullptr);

  // --- level engine ---------------------------------------------------
  struct Level {
    std::uint64_t core_cycles = 0;            // W: total work incl. retries
    std::uint64_t reduction_core_cycles = 0;  // 2-cycle tails within W
    std::uint64_t transpose_cycles = 0;       // serialized transpose wall
    std::array<std::uint64_t, metaop::kNumOpClasses> class_core_cycles{};
  };
  // `sample` = false skips the level's per-unit counter samples (a level the
  // engine folds silently on resume).
  void add_level(std::uint64_t start_cycle, const Level& level, bool sample = true);

  // --- event engine ---------------------------------------------------
  // One simulation interval of length dt machine-cycles: `delivered` core-
  // cycles were drained in total, of which `reduction` were Meta-OP reduction
  // tails and `scratch` transpose traffic; `class_delivered` splits the
  // non-scratch part by op class. compute_live=false marks an HBM-only wait.
  void accrue(double dt, double delivered, double reduction, double scratch,
              const std::array<double, metaop::kNumOpClasses>& class_delivered,
              bool compute_live);

  // Fill `out` so that every unit's buckets sum exactly to total_cycles.
  void finish(std::uint64_t total_cycles, obs::UtilizationProfile& out);

  bool active() const { return num_units_ > 0; }

 private:
  std::size_t num_units_ = 0;
  std::size_t cores_per_unit_ = 0;
  obs::Timeline* timeline_ = nullptr;

  // Level mode: a level's per-unit share is piecewise constant in the unit
  // index (units below W%U / R%U carry one extra core-cycle), so each level
  // shape contributes three range-adds on difference arrays instead of an
  // O(units) loop; finish() prefix-sums them into per-unit buckets.
  // Scratchpad stall is identical for every unit and stays a scalar.
  std::vector<std::int64_t> diff_busy_, diff_reduction_, diff_dependency_;
  std::uint64_t scratch_cycles_ = 0;
  // The buckets depend only on a level's (W, R) shape, and a bootstrap's
  // ~10^4 levels repeat a few hundred shapes: add_level() only counts shapes
  // in a direct-mapped table, and apply() range-adds a shape times its count
  // when its slot is reused and at finish().
  struct Shape {
    std::uint64_t core_cycles = 0;
    std::uint64_t reduction_core_cycles = 0;
    std::uint64_t count = 0;
  };
  std::vector<Shape> shapes_;
  void apply(const Shape& shape);
  // {busy, reduction, dependency} cycles of `unit` in a level of shape (w, r).
  std::array<std::uint64_t, 3> unit_buckets(std::uint64_t w, std::uint64_t r,
                                            std::uint64_t unit) const;

  // Event mode: shared accumulators (units are interchangeable).
  double acc_time_ = 0;
  double acc_occupied_ = 0;   // per-unit occupied time (non-scratch)
  double acc_reduction_ = 0;  // per-unit reduction share of occupied
  double acc_scratch_ = 0;    // per-unit scratchpad-stall time
  double acc_idle_ = 0;       // whole-machine HBM waits
  // Per-class core-cycle totals; fed by BOTH modes and split across each
  // unit's occupied cycles at finish() (keeps add_level() integer-only).
  std::array<double, metaop::kNumOpClasses> acc_class_{};
  bool event_mode_ = false;
};

}  // namespace alchemist::sim
