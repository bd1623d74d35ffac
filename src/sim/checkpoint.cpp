#include "sim/checkpoint.h"

#include <algorithm>

#include "common/serdes.h"

namespace alchemist::sim {

namespace {

constexpr std::uint64_t kMagic = 0x414c'4348'434b'5031ull;  // "ALCHCKP1"
// v4: the step count is the whole cursor. v1-v3 streams carried an
// engine-specific state blob after it and are rejected rather than misparsed.
constexpr std::uint64_t kVersion = 4;

}  // namespace

std::vector<std::uint8_t> Checkpoint::serialize() const {
  BinaryWriter w;
  w.write_u64(kMagic);
  w.write_u64(kVersion);
  w.write_tag(engine);
  w.write_tag(workload);
  w.write_u64(op_count);
  w.write_u64(fingerprint);
  w.write_u64(step);
  w.write_u64(w.checksum_since(0));
  return w.buffer();
}

Checkpoint Checkpoint::deserialize(const std::vector<std::uint8_t>& bytes) {
  try {
    BinaryReader r(bytes);
    if (r.read_u64() != kMagic) throw CheckpointError("checkpoint: bad magic");
    if (r.read_u64() != kVersion) throw CheckpointError("checkpoint: unsupported version");
    Checkpoint cp;
    cp.engine = r.read_string(64);
    cp.workload = r.read_string(1024);
    cp.op_count = r.read_u64();
    cp.fingerprint = r.read_u64();
    cp.step = r.read_u64();
    // The footer digests every byte before itself; recompute over the bytes
    // consumed so far, then read the stored value.
    const std::uint64_t actual = r.checksum_since(0);
    const std::uint64_t declared = r.read_u64();
    if (declared != actual) {
      throw CheckpointError("checkpoint: integrity footer mismatch");
    }
    if (!r.at_end()) throw CheckpointError("checkpoint: trailing bytes");
    if (cp.engine != kLevelEngine && cp.engine != kEventEngine) {
      throw CheckpointError("checkpoint: unknown engine '" + cp.engine + "'");
    }
    return cp;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // Truncation and length-cap failures surface from BinaryReader as
    // std::runtime_error; re-type them so callers catch one exception.
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
}

std::uint64_t sim_fingerprint(const arch::ArchConfig& config,
                              const fault::FaultModel* fault_model) {
  BinaryWriter w;
  w.write_u64(config.num_units);
  w.write_u64(config.cores_per_unit);
  w.write_u64(config.lanes);
  w.write_double(config.freq_ghz);
  w.write_u64(static_cast<std::uint64_t>(config.local_sram_kb));
  w.write_u64(static_cast<std::uint64_t>(config.shared_sram_kb));
  w.write_double(config.hbm_bw_gb_s);
  w.write_u64(static_cast<std::uint64_t>(config.word_bits));
  if (fault_model != nullptr) {
    const fault::FaultConfig& fc = fault_model->config();
    w.write_u64(fc.seed);
    w.write_double(fc.compute_fault_rate);
    w.write_double(fc.sram_fault_rate);
    w.write_double(fc.hbm_fault_rate);
    std::vector<u64> mask(fc.masked_units.begin(), fc.masked_units.end());
    std::sort(mask.begin(), mask.end());
    w.write_u64_vector(mask);
    w.write_u64(static_cast<std::uint64_t>(fc.policy));
    w.write_u64(fc.max_retries);
  }
  return fnv1a(w.buffer());
}

}  // namespace alchemist::sim
