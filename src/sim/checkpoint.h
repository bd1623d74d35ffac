// Simulation checkpoints: how far an interrupted run got.
//
// Both engines advance in steps (sim/sim_control.h) and both resume the same
// way: everything — per-op costs, fault draws, the schedule itself — is
// recomputed from the graph and the seed, and the completed steps are
// replayed silently. So a Checkpoint is a step count plus the guards that
// make replaying it meaningful: which engine produced it, which workload/graph
// it belongs to, and a fingerprint of the machine + fault configuration
// (resuming on a different geometry would silently produce garbage, so it is
// a typed error). Every checkpoint has the same size.
//
// Serialization goes through the hardened common/serdes layer: magic +
// version header, length-capped strings, and an FNV-1a integrity footer — a
// truncated or bit-flipped checkpoint fails with CheckpointError, never
// resumes wrong.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/config.h"
#include "fault/fault_model.h"

namespace alchemist::sim {

// Engine identifiers stored in checkpoints (and checked on resume).
inline constexpr const char* kLevelEngine = "level";
inline constexpr const char* kEventEngine = "event";

// Malformed, corrupted, or mismatched checkpoint (wrong engine, workload,
// geometry or fault configuration).
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Checkpoint {
  std::string engine;    // kLevelEngine | kEventEngine; empty = no checkpoint
  std::string workload;  // graph name guard
  std::uint64_t op_count = 0;     // graph size guard
  std::uint64_t fingerprint = 0;  // sim_fingerprint() of config + fault model
  std::uint64_t step = 0;         // steps completed at the snapshot

  bool valid() const { return !engine.empty(); }
  void clear() { *this = Checkpoint{}; }

  // Framed binary form (magic, version, integrity footer).
  std::vector<std::uint8_t> serialize() const;
  static Checkpoint deserialize(const std::vector<std::uint8_t>& bytes);
};

// Digest of the simulated machine + fault configuration a checkpoint is only
// valid for: ArchConfig geometry/bandwidth fields plus, when a fault model is
// attached, its seed, rates, mask and policy. Engines refuse to resume a
// checkpoint whose fingerprint differs from the current run's.
std::uint64_t sim_fingerprint(const arch::ArchConfig& config,
                              const fault::FaultModel* fault_model);

}  // namespace alchemist::sim
