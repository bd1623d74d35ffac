#include "sim/unit_profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "sim/telemetry.h"

namespace alchemist::sim {

namespace {

using metaop::class_tag;
using metaop::kNumOpClasses;
using metaop::OpClass;

// Shape table size: a bootstrap has ~240 distinct level shapes.
constexpr int kShapeBits = 10;

std::string unit_track_name(std::size_t unit) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "util/unit%03zu", unit);
  return buf;
}

// Integerize `weights` so they sum to `target` (largest-remainder method;
// ties break on the lower index so the result is deterministic).
template <std::size_t N>
std::array<std::uint64_t, N> apportion(const std::array<double, N>& weights,
                                       std::uint64_t target) {
  std::array<std::uint64_t, N> out{};
  double total = 0;
  for (double w : weights) total += std::max(w, 0.0);
  if (target == 0 || total <= 0) return out;
  std::array<double, N> frac{};
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const double ideal =
        std::max(weights[i], 0.0) / total * static_cast<double>(target);
    out[i] = static_cast<std::uint64_t>(ideal);
    frac[i] = ideal - static_cast<double>(out[i]);
    assigned += out[i];
  }
  std::array<std::size_t, N> order{};
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return frac[a] > frac[b];
  });
  for (std::size_t i = 0; assigned < target; ++i) {
    out[order[i % N]] += 1;
    ++assigned;
  }
  return out;
}

}  // namespace

void UnitProfiler::begin(std::size_t num_units, std::size_t cores_per_unit,
                         obs::Timeline* timeline) {
  num_units_ = num_units;
  cores_per_unit_ = std::max<std::size_t>(cores_per_unit, 1);
  timeline_ = timeline;
  diff_busy_.assign(num_units + 1, 0);
  diff_reduction_.assign(num_units + 1, 0);
  diff_dependency_.assign(num_units + 1, 0);
  scratch_cycles_ = 0;
  shapes_.assign(std::size_t{1} << kShapeBits, Shape{});
  if (timeline_ != nullptr) {
    for (std::size_t u = 0; u < num_units_; ++u) {
      timeline_->set_track_name(kUtilTidBase + static_cast<std::uint32_t>(u),
                                unit_track_name(u));
    }
  }
}

std::array<std::uint64_t, 3> UnitProfiler::unit_buckets(std::uint64_t w,
                                                       std::uint64_t r,
                                                       std::uint64_t unit) const {
  const std::uint64_t U = num_units_;
  const std::uint64_t C = cores_per_unit_;
  const std::uint64_t compute_wall = (w + U * C - 1) / (U * C);
  const std::uint64_t work_u = w / U + (unit < w % U ? 1 : 0);
  const std::uint64_t occ_u = (work_u + C - 1) / C;
  const std::uint64_t red_core_u = r / U + (unit < r % U ? 1 : 0);
  const std::uint64_t red_u = std::min(occ_u, (red_core_u + C - 1) / C);
  return {occ_u - red_u, red_u, compute_wall - occ_u};
}

void UnitProfiler::apply(const Shape& shape) {
  const std::uint64_t U = num_units_;
  const std::uint64_t rW = shape.core_cycles % U;
  const std::uint64_t rR = shape.reduction_core_cycles % U;
  const std::array<std::uint64_t, 4> cut = {0, std::min(rW, rR), std::max(rW, rR), U};
  const auto n = static_cast<std::int64_t>(shape.count);
  for (int s = 0; s < 3; ++s) {
    const std::uint64_t a = cut[s], b = cut[s + 1];
    if (a >= b) continue;
    const auto [busy, red, dep] =
        unit_buckets(shape.core_cycles, shape.reduction_core_cycles, a);
    diff_busy_[a] += n * static_cast<std::int64_t>(busy);
    diff_busy_[b] -= n * static_cast<std::int64_t>(busy);
    diff_reduction_[a] += n * static_cast<std::int64_t>(red);
    diff_reduction_[b] -= n * static_cast<std::int64_t>(red);
    diff_dependency_[a] += n * static_cast<std::int64_t>(dep);
    diff_dependency_[b] -= n * static_cast<std::int64_t>(dep);
  }
}

void UnitProfiler::add_level(std::uint64_t start_cycle, const Level& level,
                             bool sample) {
  if (num_units_ == 0) return;
  const std::uint64_t W = level.core_cycles;
  const std::uint64_t R = level.reduction_core_cycles;

  // Class attribution is deferred to finish(): accumulating the per-class
  // core-cycle totals here and splitting each unit's occupied cycles once at
  // the end keeps this per-level path free of string-keyed map updates.
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    acc_class_[c] += static_cast<double>(level.class_core_cycles[c]);
  }
  scratch_cycles_ += level.transpose_cycles;

  Shape& slot = shapes_[((W * 0x9e37'79b9'7f4a'7c15ull) ^
                         (R * 0xc2b2'ae3d'27d4'eb4full)) >> (64 - kShapeBits)];
  if (slot.count != 0 &&
      (slot.core_cycles != W || slot.reduction_core_cycles != R)) {
    apply(slot);
    slot.count = 0;
  }
  slot.core_cycles = W;
  slot.reduction_core_cycles = R;
  ++slot.count;

  // Trace mode pays the O(units) loop; profiling without a trace does not.
  if (!sample || timeline_ == nullptr) return;
  const std::uint64_t U = num_units_;
  const std::uint64_t level_wall =
      (W + U * cores_per_unit_ - 1) / (U * cores_per_unit_) + level.transpose_cycles;
  if (level_wall > 0) {
    const double wall = static_cast<double>(level_wall);
    for (std::uint64_t u = 0; u < U; ++u) {
      const auto [busy_u, red_u, dep_u] = unit_buckets(W, R, u);
      obs::CounterEvent ev;
      ev.name = unit_track_name(u);
      ev.tid = kUtilTidBase + static_cast<std::uint32_t>(u);
      ev.ts = static_cast<double>(start_cycle);
      ev.series = {
          {"busy", static_cast<double>(busy_u) / wall},
          {"reduction", static_cast<double>(red_u) / wall},
          {"stall",
           static_cast<double>(dep_u + level.transpose_cycles) / wall},
      };
      timeline_->record_counter(std::move(ev));
    }
  }
}

void UnitProfiler::accrue(
    double dt, double delivered, double reduction, double scratch,
    const std::array<double, metaop::kNumOpClasses>& class_delivered,
    bool compute_live) {
  if (num_units_ == 0) return;
  event_mode_ = true;
  const double denom =
      static_cast<double>(num_units_) * static_cast<double>(cores_per_unit_);
  const double occ = std::max(delivered - scratch, 0.0) / denom;
  acc_time_ += dt;
  acc_occupied_ += occ;
  acc_reduction_ += reduction / denom;
  acc_scratch_ += scratch / denom;
  if (!compute_live) acc_idle_ += dt;
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    acc_class_[c] += class_delivered[c] / denom;
  }
}

void UnitProfiler::finish(std::uint64_t total_cycles,
                          obs::UtilizationProfile& out) {
  out.clear();
  if (num_units_ == 0) return;
  out.total_cycles = total_cycles;

  if (!event_mode_) {
    // Level mode is exact already; prefix-sum the per-level difference
    // arrays into per-unit buckets. The only unaccounted cycles are the
    // trailing HBM drain, identical for every unit — pad them into idle.
    // Each unit's occupied cycles are split across op classes proportionally
    // to the run's per-class core-cycle totals (largest-remainder, so the
    // class cycles sum exactly to the unit's occupied cycles).
    for (Shape& shape : shapes_) {
      if (shape.count != 0) apply(shape);
      shape.count = 0;
    }
    out.units.assign(num_units_, obs::UnitCycles{});
    std::int64_t busy = 0, red = 0, dep = 0;
    for (std::size_t u = 0; u < num_units_; ++u) {
      busy += diff_busy_[u];
      red += diff_reduction_[u];
      dep += diff_dependency_[u];
      obs::UnitCycles& unit = out.units[u];
      unit.busy = static_cast<std::uint64_t>(busy);
      unit.reduction = static_cast<std::uint64_t>(red);
      unit.stall_dependency = static_cast<std::uint64_t>(dep);
      unit.stall_scratchpad = scratch_cycles_;
      const std::uint64_t t = unit.total();
      if (t < total_cycles) unit.idle += total_cycles - t;
      const auto split = apportion(acc_class_, unit.occupied());
      for (std::size_t c = 0; c < kNumOpClasses; ++c) {
        if (split[c] > 0)
          unit.class_occupied[class_tag(static_cast<OpClass>(c))] += split[c];
      }
      if (timeline_ != nullptr) {
        obs::CounterEvent ev;
        ev.name = unit_track_name(u);
        ev.tid = kUtilTidBase + static_cast<std::uint32_t>(u);
        ev.ts = static_cast<double>(total_cycles);
        ev.series = {{"busy", 0.0}, {"reduction", 0.0}, {"stall", 0.0}};
        timeline_->record_counter(std::move(ev));
      }
    }
    return;
  }

  // Event mode: units share the cores uniformly, so one fractional profile
  // integerizes into one per-unit record replicated across the machine.
  const double total = static_cast<double>(total_cycles);
  double busy_d = std::max(acc_occupied_ - acc_reduction_, 0.0);
  double red_d = std::min(acc_reduction_, acc_occupied_);
  double scr_d = acc_scratch_;
  double idle_d = acc_idle_;
  double sum = busy_d + red_d + scr_d + idle_d;
  if (sum > total && sum > 0) {
    const double scale = total / sum;
    busy_d *= scale;
    red_d *= scale;
    scr_d *= scale;
    idle_d *= scale;
    sum = total;
  }
  // Whatever the interval accounting did not attribute — undersubscribed
  // cores while compute was live, plus the final ceil() slack — is the
  // dependency stall.
  const double dep_d = total - sum;
  const auto buckets = apportion<5>({busy_d, red_d, scr_d, dep_d, idle_d},
                                    total_cycles);
  obs::UnitCycles unit;
  unit.busy = buckets[0];
  unit.reduction = buckets[1];
  unit.stall_scratchpad = buckets[2];
  unit.stall_dependency = buckets[3];
  unit.idle = buckets[4];
  const auto split = apportion(acc_class_, unit.occupied());
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    if (split[c] > 0)
      unit.class_occupied[class_tag(static_cast<OpClass>(c))] += split[c];
  }
  out.units.assign(num_units_, unit);
}

}  // namespace alchemist::sim
