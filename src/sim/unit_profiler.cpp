#include "sim/unit_profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace alchemist::sim {

namespace {

using metaop::class_tag;
using metaop::kNumOpClasses;
using metaop::OpClass;

// Shape table size: a bootstrap has ~240 distinct level shapes.
constexpr int kShapeBits = 10;

std::string unit_track_name(std::size_t unit) {
  char buf[32];
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

// Splits a unit's occupied cycles across op classes in proportion to the
// run's per-class core-cycle totals.
void split_classes(const std::array<double, kNumOpClasses>& class_cycles,
                   obs::UnitCycles& unit) {
  const auto split = apportion(class_cycles, unit.occupied());
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    if (split[c] > 0)
      unit.class_occupied[class_tag(static_cast<OpClass>(c))] += split[c];
  }
}

// Per-unit buckets of a level schedule. A level's per-unit share is piecewise
// constant in the unit index (units below W%U / R%U carry one extra
// core-cycle), so each level shape contributes three range-adds on
// difference arrays instead of an O(units) loop. The buckets depend only on a
// level's (W, R) shape, and a bootstrap's ~10^4 levels repeat a few hundred
// shapes: add() only counts shapes in a direct-mapped table, and apply()
// range-adds a shape times its count when its slot is reused and at the end.
class LevelBuckets {
 public:
  LevelBuckets(std::uint64_t units, std::uint64_t cores_per_unit)
      : U_(units),
        C_(cores_per_unit),
        busy_(units + 1, 0),
        reduction_(units + 1, 0),
        dependency_(units + 1, 0),
        shapes_(std::size_t{1} << kShapeBits) {}

  // {busy, reduction, dependency} cycles of `unit` in a level of shape (w, r).
  std::array<std::uint64_t, 3> unit_buckets(std::uint64_t w, std::uint64_t r,
                                            std::uint64_t unit) const {
    const std::uint64_t compute_wall = (w + U_ * C_ - 1) / (U_ * C_);
    const std::uint64_t work_u = w / U_ + (unit < w % U_ ? 1 : 0);
    const std::uint64_t occ_u = (work_u + C_ - 1) / C_;
    const std::uint64_t red_core_u = r / U_ + (unit < r % U_ ? 1 : 0);
    const std::uint64_t red_u = std::min(occ_u, (red_core_u + C_ - 1) / C_);
    return {occ_u - red_u, red_u, compute_wall - occ_u};
  }

  void add(std::uint64_t w, std::uint64_t r) {
    Shape& slot = shapes_[((w * 0x9e37'79b9'7f4a'7c15ull) ^
                           (r * 0xc2b2'ae3d'27d4'eb4full)) >> (64 - kShapeBits)];
    if (slot.count != 0 && (slot.core_cycles != w || slot.reduction_core_cycles != r)) {
      apply(slot);
      slot.count = 0;
    }
    slot.core_cycles = w;
    slot.reduction_core_cycles = r;
    ++slot.count;
  }

  // Prefix-sums the difference arrays into per-unit buckets.
  std::vector<obs::UnitCycles> units() {
    for (Shape& shape : shapes_) {
      if (shape.count != 0) apply(shape);
      shape.count = 0;
    }
    std::vector<obs::UnitCycles> out(U_);
    std::int64_t busy = 0, red = 0, dep = 0;
    for (std::size_t u = 0; u < U_; ++u) {
      busy += busy_[u];
      red += reduction_[u];
      dep += dependency_[u];
      out[u].busy = static_cast<std::uint64_t>(busy);
      out[u].reduction = static_cast<std::uint64_t>(red);
      out[u].stall_dependency = static_cast<std::uint64_t>(dep);
    }
    return out;
  }

 private:
  struct Shape {
    std::uint64_t core_cycles = 0;
    std::uint64_t reduction_core_cycles = 0;
    std::uint64_t count = 0;
  };

  void apply(const Shape& shape) {
    const std::uint64_t rW = shape.core_cycles % U_;
    const std::uint64_t rR = shape.reduction_core_cycles % U_;
    const std::array<std::uint64_t, 4> cut = {0, std::min(rW, rR), std::max(rW, rR), U_};
    const auto n = static_cast<std::int64_t>(shape.count);
    for (int s = 0; s < 3; ++s) {
      const std::uint64_t a = cut[s], b = cut[s + 1];
      if (a >= b) continue;
      const auto [busy, red, dep] =
          unit_buckets(shape.core_cycles, shape.reduction_core_cycles, a);
      busy_[a] += n * static_cast<std::int64_t>(busy);
      busy_[b] -= n * static_cast<std::int64_t>(busy);
      reduction_[a] += n * static_cast<std::int64_t>(red);
      reduction_[b] -= n * static_cast<std::int64_t>(red);
      dependency_[a] += n * static_cast<std::int64_t>(dep);
      dependency_[b] -= n * static_cast<std::int64_t>(dep);
    }
  }

  std::uint64_t U_, C_;
  std::vector<std::int64_t> busy_, reduction_, dependency_;
  std::vector<Shape> shapes_;
};

void sample(obs::Timeline& timeline, std::size_t unit, std::uint64_t ts,
            double busy, double reduction, double stall) {
  timeline.record_counter(
      {.name = unit_track_name(unit), .tid = kUtilTidBase + static_cast<std::uint32_t>(unit),
       .ts = static_cast<double>(ts),
       .series = {{"busy", busy}, {"reduction", reduction}, {"stall", stall}}});
}

void profile_levels(const Schedule& s, obs::UtilizationProfile& out,
                    obs::Timeline* timeline) {
  const std::uint64_t U = s.cfg.num_units;
  const std::uint64_t C = std::max<std::size_t>(s.cfg.cores_per_unit, 1);
  if (timeline != nullptr) {
    for (std::size_t u = 0; u < U; ++u) {
      timeline->set_track_name(kUtilTidBase + static_cast<std::uint32_t>(u),
                               unit_track_name(u));
    }
  }
  LevelBuckets buckets(U, C);
  std::uint64_t scratch_cycles = 0;
  for (std::size_t level = 0; level < s.levels.size(); ++level) {
    const LevelFrame& frame = s.levels[level];
    const std::uint64_t W = frame.core_cycles;
    const std::uint64_t R = frame.reduction_core_cycles;
    scratch_cycles += frame.transpose_cycles;
    buckets.add(W, R);

    // Sampling pays the O(units) loop; profiling without a trace does not.
    if (timeline == nullptr || level < s.first_step || frame.wall == 0) continue;
    const double wall = static_cast<double>(frame.wall);
    for (std::uint64_t u = 0; u < U; ++u) {
      const auto [busy_u, red_u, dep_u] = buckets.unit_buckets(W, R, u);
      sample(*timeline, u, frame.start, static_cast<double>(busy_u) / wall,
             static_cast<double>(red_u) / wall,
             static_cast<double>(dep_u + frame.transpose_cycles) / wall);
    }
  }

  std::array<double, kNumOpClasses> class_cycles{};
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    class_cycles[c] = static_cast<double>(s.class_core_cycles[c]);
  }
  out.units = buckets.units();
  for (std::size_t u = 0; u < U; ++u) {
    obs::UnitCycles& unit = out.units[u];
    unit.stall_scratchpad = scratch_cycles;
    const std::uint64_t t = unit.total();
    if (t < s.end_cycles) unit.idle += s.end_cycles - t;
    split_classes(class_cycles, unit);
    if (timeline != nullptr) sample(*timeline, u, s.end_cycles, 0.0, 0.0, 0.0);
  }
}

void profile_intervals(const Schedule& s, obs::UtilizationProfile& out) {
  const double denom = static_cast<double>(s.cfg.num_units) *
                       static_cast<double>(std::max<std::size_t>(s.cfg.cores_per_unit, 1));
  double occupied = 0, reduction = 0, scratch = 0, idle = 0;
  std::array<double, kNumOpClasses> class_cycles{};
  for (const CompletionInterval& iv : s.intervals) {
    occupied += std::max(iv.delivered - iv.scratch, 0.0) / denom;
    reduction += iv.reduction / denom;
    scratch += iv.scratch / denom;
    if (!iv.compute_live) idle += iv.dt;
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      class_cycles[c] += iv.class_delivered[c] / denom;
    }
  }

  // Units share the cores uniformly, so one fractional profile integerizes
  // into one per-unit record replicated across the machine. The buckets are
  // {busy, reduction, scratchpad, dependency, idle}: an overfull sum scales
  // down to the end cycle, and what the intervals leave unattributed is
  // stall:dependency.
  const double total = static_cast<double>(s.end_cycles);
  std::array<double, 5> weights = {std::max(occupied - reduction, 0.0),
                                   std::min(reduction, occupied), scratch, 0.0, idle};
  const double sum = weights[0] + weights[1] + weights[2] + weights[4];
  if (sum > total && sum > 0) {
    for (double& w : weights) w *= total / sum;
  }
  weights[3] = std::max(total - sum, 0.0);
  const auto buckets = apportion(weights, s.end_cycles);
  obs::UnitCycles unit;
  unit.busy = buckets[0];
  unit.reduction = buckets[1];
  unit.stall_scratchpad = buckets[2];
  unit.stall_dependency = buckets[3];
  unit.idle = buckets[4];
  split_classes(class_cycles, unit);
  out.units.assign(s.cfg.num_units, unit);
}

}  // namespace

void UnitProfiler::profile(const Schedule& s, obs::UtilizationProfile& out,
                           obs::Timeline* timeline) {
  out.clear();
  if (s.cfg.num_units == 0) return;
  out.total_cycles = s.end_cycles;
  if (s.event) {
    profile_intervals(s, out);
  } else {
    profile_levels(s, out, timeline);
  }
}

}  // namespace alchemist::sim
