// Shared telemetry plumbing for the two Alchemist simulators: the Chrome
// trace track layout and a row allocator that keeps concurrent slices from
// overlapping on one track (Perfetto renders properly-nested slices only, so
// each operator class gets a small family of rows, filled first-fit).
//
// Track id space:
//   class c, row r  ->  tid = c * kRowsPerClass + r   ("ntt/0", "bconv/1", ...)
//   HBM channel     ->  kHbmTid                        ("hbm")
//   transpose RF    ->  kTransposeTid                  ("transpose")
//   scheduler       ->  kSchedulerTid                  ("scheduler") — level
//                       frames of the analytical model, stall frames
//   fault model     ->  kFaultTid                      ("fault") — injected
//                       transients, retry re-executions, DMR corrections
//   unit profiler   ->  kUtilTidBase + unit            ("util/unit000", ...) —
//                       per-unit occupancy counter tracks ("C" events)
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "metaop/metaop.h"
#include "metaop/op_graph.h"
#include "obs/timeline.h"

namespace alchemist::sim {

inline constexpr std::uint32_t kRowsPerClass = 64;
inline constexpr std::uint32_t kHbmTid =
    static_cast<std::uint32_t>(metaop::kNumOpClasses) * kRowsPerClass;
inline constexpr std::uint32_t kTransposeTid = kHbmTid + 1;
inline constexpr std::uint32_t kSchedulerTid = kHbmTid + 2;
inline constexpr std::uint32_t kFaultTid = kHbmTid + 3;
inline constexpr std::uint32_t kUtilTidBase = kHbmTid + 4;
// Memory-profiler counter tracks (sim::MemProfiler): epoch HBM bandwidth-%
// and scratchpad residency. Offset leaves room for kUtilTidBase + unit tids.
inline constexpr std::uint32_t kMemBwTid = kUtilTidBase + 65536;
inline constexpr std::uint32_t kMemScratchTid = kMemBwTid + 1;


// "NTT#12": an op's slice label.
inline std::string op_label(const metaop::HighOp& op, std::size_t idx) {
  return std::string(metaop::to_string(op.kind)) + "#" + std::to_string(idx);
}

// One fault-model slice: an op's injected transients and the core-cycles its
// mitigation re-executed.
inline void record_fault(obs::Timeline& timeline, const metaop::HighOp& op,
                         std::size_t idx, const fault::OpFaults& faults,
                         double retry_core_cycles, double ts, double dur) {
  obs::TraceEvent fe;
  fe.name = "fault " + op_label(op, idx);
  fe.cat = "fault";
  fe.tid = kFaultTid;
  fe.ts = ts;
  fe.dur = dur;
  fe.num_args = {
      {"faults_compute", static_cast<double>(faults.compute)},
      {"faults_sram", static_cast<double>(faults.sram)},
      {"faults_hbm", static_cast<double>(faults.hbm)},
      {"retry_core_cycles", retry_core_cycles},
  };
  timeline.record(std::move(fe));
}

// First-fit row allocation for one operator class's unit-group track family.
class ClassTrackRows {
 public:
  ClassTrackRows(obs::Timeline& timeline, metaop::OpClass cls)
      : timeline_(timeline), cls_(cls) {}

  // Reserve a row covering [start, end); returns its tid.
  std::uint32_t reserve(double start, double end) {
    std::size_t row = 0;
    while (row < row_end_.size() && row_end_[row] > start + 1e-9) ++row;
    if (row == row_end_.size()) {
      if (row_end_.size() < kRowsPerClass) {
        row_end_.push_back(0);
        timeline_.set_track_name(tid(row), std::string(metaop::class_tag(cls_)) +
                                               "/" + std::to_string(row));
      } else {
        row = kRowsPerClass - 1;  // saturate: stack on the last row
      }
    }
    row_end_[row] = std::max(row_end_[row], end);
    return tid(row);
  }

 private:
  std::uint32_t tid(std::size_t row) const {
    return static_cast<std::uint32_t>(cls_) * kRowsPerClass +
           static_cast<std::uint32_t>(row);
  }
  obs::Timeline& timeline_;
  metaop::OpClass cls_;
  std::vector<double> row_end_;
};

// Names the simulator process and its fixed tracks, and returns one row
// allocator per operator class; no-op (and no rows) for an untraced run.
inline std::vector<ClassTrackRows> begin_trace(obs::Timeline* timeline,
                                               const char* process) {
  std::vector<ClassTrackRows> rows;
  if (timeline == nullptr) return rows;
  timeline->set_process_name(process);
  timeline->set_track_name(kHbmTid, "hbm");
  timeline->set_track_name(kTransposeTid, "transpose");
  timeline->set_track_name(kSchedulerTid, "scheduler");
  timeline->set_track_name(kFaultTid, "fault");
  for (std::size_t c = 0; c < metaop::kNumOpClasses; ++c) {
    rows.emplace_back(*timeline, static_cast<metaop::OpClass>(c));
  }
  return rows;
}

}  // namespace alchemist::sim
