#include "net/protocol.h"

#include <stdexcept>

#include "common/serdes.h"
#include "obs/registry.h"

namespace alchemist::net {

namespace {

// Sanity bounds on wire strings, enforced on decode before allocation (the
// serdes reader additionally caps every declared length against the bytes
// remaining). Idempotency keys and tenant names are caller-controlled, so
// they get the tightest caps.
constexpr std::size_t kMaxKeyLen = 256;
constexpr std::size_t kMaxNameLen = 1024;
constexpr std::size_t kMaxErrorLen = 4096;

BinaryReader make_reader(std::span<const std::uint8_t> bytes) {
  return BinaryReader(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

void check_consumed(const BinaryReader& r, const char* what) {
  if (!r.at_end()) {
    throw std::runtime_error(std::string("net: trailing bytes after ") + what);
  }
}

// A result's registry on the wire: the canonical-key counter and gauge maps,
// length-prefixed.
void write_registry(BinaryWriter& w, const obs::Registry& reg) {
  w.write_u64(reg.counters().size());
  for (const auto& [key, value] : reg.counters()) {
    w.write_tag(key);
    w.write_u64(value);
  }
  w.write_u64(reg.gauges().size());
  for (const auto& [key, value] : reg.gauges()) {
    w.write_tag(key);
    w.write_double(value);
  }
}

void read_registry(BinaryReader& r, obs::Registry& reg) {
  reg.clear();
  const std::uint64_t n_counters = r.read_u64();
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    // Keys are already canonical (metric_key of a tagless add is the name
    // verbatim), so re-adding under the stored key reproduces the exact map.
    const std::string key = r.read_string();
    reg.add(key, r.read_u64());
  }
  const std::uint64_t n_gauges = r.read_u64();
  for (std::uint64_t i = 0; i < n_gauges; ++i) {
    const std::string key = r.read_string();
    reg.set_gauge(key, r.read_double());
  }
}

}  // namespace

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::BadFrame: return "bad-frame";
    case ErrorCode::VersionMismatch: return "version-mismatch";
    case ErrorCode::FrameTooLarge: return "frame-too-large";
    case ErrorCode::ReadTimeout: return "read-timeout";
    case ErrorCode::IdleTimeout: return "idle-timeout";
    case ErrorCode::TooManyInFlight: return "too-many-in-flight";
    case ErrorCode::Busy: return "busy";
    case ErrorCode::Draining: return "draining";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::UnknownWorkload: return "unknown-workload";
    case ErrorCode::ProtocolViolation: return "protocol-violation";
  }
  return "?";
}

bool is_retryable(ErrorCode c) {
  switch (c) {
    case ErrorCode::Busy:
    case ErrorCode::Draining:
    case ErrorCode::IdleTimeout:
    case ErrorCode::ReadTimeout:
    case ErrorCode::BadFrame:  // corruption in flight, not a bad request
      return true;
    default:
      return false;
  }
}

std::vector<std::uint8_t> encode(const HelloPayload& p) {
  BinaryWriter w;
  w.write_tag("net.hello.v1");
  w.write_u64(p.protocol);
  w.write_tag(p.client);
  return w.buffer();
}

HelloPayload decode_hello(std::span<const std::uint8_t> bytes) {
  BinaryReader r = make_reader(bytes);
  r.expect_tag("net.hello.v1");
  HelloPayload p;
  p.protocol = r.read_u64();
  p.client = r.read_string(kMaxNameLen);
  check_consumed(r, "hello");
  return p;
}

std::vector<std::uint8_t> encode(const HelloAckPayload& p) {
  BinaryWriter w;
  w.write_tag("net.helloack.v1");
  w.write_u64(p.protocol);
  w.write_tag(p.server);
  w.write_u64(p.max_payload_bytes);
  w.write_u64(p.max_in_flight);
  return w.buffer();
}

HelloAckPayload decode_hello_ack(std::span<const std::uint8_t> bytes) {
  BinaryReader r = make_reader(bytes);
  r.expect_tag("net.helloack.v1");
  HelloAckPayload p;
  p.protocol = r.read_u64();
  p.server = r.read_string(kMaxNameLen);
  p.max_payload_bytes = r.read_u64();
  p.max_in_flight = r.read_u64();
  check_consumed(r, "hello-ack");
  return p;
}

std::vector<std::uint8_t> encode(const SubmitPayload& p) {
  BinaryWriter w;
  w.write_tag("net.submit.v1");
  w.write_tag(p.client_job_id);
  w.write_tag(p.tenant);
  w.write_tag(p.workload);
  w.write_u8(p.engine);
  w.write_u8(p.degradable ? 1 : 0);
  w.write_u64(p.fault_seed);
  w.write_double(p.fault_rate);
  w.write_u64(p.deadline_us);
  w.write_u64(p.max_steps);
  w.write_u64(p.max_attempts);
  w.write_u64(p.checkpoint_interval);
  return w.buffer();
}

SubmitPayload decode_submit(std::span<const std::uint8_t> bytes) {
  BinaryReader r = make_reader(bytes);
  r.expect_tag("net.submit.v1");
  SubmitPayload p;
  p.client_job_id = r.read_string(kMaxKeyLen);
  p.tenant = r.read_string(kMaxKeyLen);
  p.workload = r.read_string(kMaxNameLen);
  p.engine = r.read_u8();
  p.degradable = r.read_u8() != 0;
  p.fault_seed = r.read_u64();
  p.fault_rate = r.read_double();
  p.deadline_us = r.read_u64();
  p.max_steps = r.read_u64();
  p.max_attempts = r.read_u64();
  p.checkpoint_interval = r.read_u64();
  check_consumed(r, "submit");
  if (p.client_job_id.empty()) {
    throw std::runtime_error("net: submit requires a client_job_id");
  }
  if (p.engine != kEngineLevel && p.engine != kEngineEvent) {
    throw std::runtime_error("net: unknown engine selector");
  }
  return p;
}

std::vector<std::uint8_t> encode(const StatusPayload& p) {
  BinaryWriter w;
  w.write_tag("net.status.v1");
  w.write_tag(p.client_job_id);
  w.write_u8(p.state);
  w.write_u8(p.attached ? 1 : 0);
  w.write_u64(p.trace_id);
  return w.buffer();
}

StatusPayload decode_status(std::span<const std::uint8_t> bytes) {
  BinaryReader r = make_reader(bytes);
  r.expect_tag("net.status.v1");
  StatusPayload p;
  p.client_job_id = r.read_string(kMaxKeyLen);
  p.state = r.read_u8();
  p.attached = r.read_u8() != 0;
  p.trace_id = r.read_u64();
  check_consumed(r, "status");
  return p;
}

std::vector<std::uint8_t> encode(const ResultPayload& p) {
  BinaryWriter w;
  w.write_tag("net.result.v1");
  w.write_tag(p.client_job_id);
  w.write_u8(p.state);
  w.write_tag(p.error);
  w.write_u64(p.attempts);
  w.write_u8(p.degraded ? 1 : 0);
  w.write_u8(p.replayed ? 1 : 0);
  w.write_u64(p.trace_id);
  w.write_u8(p.has_result ? 1 : 0);
  if (p.has_result) {
    w.write_tag(p.workload);
    w.write_tag(p.accelerator);
    w.write_double(p.sim_time_us);
    write_registry(w, p.registry);
  }
  return w.buffer();
}

ResultPayload decode_result(std::span<const std::uint8_t> bytes) {
  BinaryReader r = make_reader(bytes);
  r.expect_tag("net.result.v1");
  ResultPayload p;
  p.client_job_id = r.read_string(kMaxKeyLen);
  p.state = r.read_u8();
  p.error = r.read_string(kMaxErrorLen);
  p.attempts = r.read_u64();
  p.degraded = r.read_u8() != 0;
  p.replayed = r.read_u8() != 0;
  p.trace_id = r.read_u64();
  p.has_result = r.read_u8() != 0;
  if (p.has_result) {
    p.workload = r.read_string(kMaxNameLen);
    p.accelerator = r.read_string(kMaxNameLen);
    p.sim_time_us = r.read_double();
    read_registry(r, p.registry);
  }
  check_consumed(r, "result");
  return p;
}

std::vector<std::uint8_t> encode(const ErrorPayload& p) {
  BinaryWriter w;
  w.write_tag("net.error.v1");
  w.write_u64(p.code);
  w.write_tag(p.message);
  return w.buffer();
}

ErrorPayload decode_error(std::span<const std::uint8_t> bytes) {
  BinaryReader r = make_reader(bytes);
  r.expect_tag("net.error.v1");
  ErrorPayload p;
  p.code = static_cast<std::uint16_t>(r.read_u64());
  p.message = r.read_string(kMaxErrorLen);
  check_consumed(r, "error");
  return p;
}

std::vector<std::uint8_t> encode(const DrainPayload& p) {
  BinaryWriter w;
  w.write_tag("net.drain.v1");
  w.write_tag(p.message);
  return w.buffer();
}

DrainPayload decode_drain(std::span<const std::uint8_t> bytes) {
  BinaryReader r = make_reader(bytes);
  r.expect_tag("net.drain.v1");
  DrainPayload p;
  p.message = r.read_string(kMaxErrorLen);
  check_consumed(r, "drain");
  return p;
}

}  // namespace alchemist::net
