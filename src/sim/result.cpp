#include "sim/result.h"

namespace alchemist::sim {

void SimResult::finalize() {
  cycles = registry.counter(metrics::kCycles);
  time_us = registry.gauge(metrics::kTimeUs);
  utilization = registry.gauge(metrics::kUtilization);
  mem_stall_cycles = registry.counter(metrics::kStall, {{"cause", "hbm"}});
  transpose_cycles = registry.counter(metrics::kTransposeCycles);
  total_mults = registry.counter(metrics::kMults, {{"lazy", "true"}}) +
                registry.counter(metrics::kMults, {{"lazy", "false"}});
  for (std::size_t c = 0; c < metaop::kNumOpClasses; ++c) {
    const char* tag = metaop::class_tag(static_cast<metaop::OpClass>(c));
    cycles_by_class[c] = registry.counter(metrics::kCycles, {{"class", tag}});
    util_by_class[c] = registry.gauge(metrics::kUtilization, {{"class", tag}});
  }
}

}  // namespace alchemist::sim
