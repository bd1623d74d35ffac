#include "net/client.h"

#include <array>
#include <thread>

#include "common/serdes.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "svc/job.h"

namespace alchemist::net {

namespace {

// One connection's attempt at the submit -> terminal conversation.
enum class AttemptStatus {
  Delivered,  // terminal Result frame received
  Retry,      // transport-class failure: reconnect and resubmit
  Fatal,      // typed non-retryable rejection: surface it
};

void default_sleep(std::uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

AttemptStatus attempt(const ClientOptions& opts, const SubmitPayload& submit,
                      RunOutcome& out) {
  ScopedFd fd(connect_loopback(opts.port));
  if (!fd.valid()) {
    out.error = "connect failed";
    return AttemptStatus::Retry;
  }
  set_recv_timeout(fd.get(),
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       opts.tick));
  set_send_timeout(fd.get(), std::chrono::seconds(5));

  FrameParser parser(opts.max_payload);
  auto send = [&](FrameType type, std::span<const std::uint8_t> payload) {
    const auto frame = encode_frame(type, payload);
    return send_all(fd.get(), frame.data(), frame.size());
  };

  HelloPayload hello;
  hello.client = opts.name;
  if (!send(FrameType::Hello, encode(hello))) {
    out.error = "send hello failed";
    return AttemptStatus::Retry;
  }
  bool submitted = false;

  std::array<std::uint8_t, 4096> buf;
  auto last_frame = std::chrono::steady_clock::now();
  for (;;) {
    std::size_t got = 0;
    const RecvStatus rs = recv_some(fd.get(), buf.data(), buf.size(), got);
    const auto now = std::chrono::steady_clock::now();
    if (rs == RecvStatus::Data) {
      parser.feed(std::span<const std::uint8_t>(buf.data(), got));
    } else if (rs == RecvStatus::Closed || rs == RecvStatus::Error) {
      out.error = rs == RecvStatus::Closed ? "connection closed"
                                           : "connection error";
      return AttemptStatus::Retry;
    } else if (now - last_frame > opts.response_timeout) {
      out.error = "response timeout";
      return AttemptStatus::Retry;
    }

    Frame f;
    for (;;) {
      const FrameError fe = parser.next(f);
      if (fe == FrameError::NeedMore) break;
      if (fe != FrameError::None) {
        // Corrupted or desynchronized stream: the parser is poisoned, drop
        // the connection and retry through the idempotency key.
        out.error = std::string("frame error: ") + to_string(fe);
        return AttemptStatus::Retry;
      }
      last_frame = now;
      switch (f.type) {
        case FrameType::HelloAck: {
          try {
            (void)decode_hello_ack(f.payload);
          } catch (const std::exception& e) {
            out.error = e.what();
            return AttemptStatus::Retry;
          }
          if (!submitted) {
            if (!send(FrameType::Submit, encode(submit))) {
              out.error = "send submit failed";
              return AttemptStatus::Retry;
            }
            submitted = true;
          }
          break;
        }
        case FrameType::Status: {
          StatusPayload st;
          try {
            st = decode_status(f.payload);
          } catch (const std::exception& e) {
            out.error = e.what();
            return AttemptStatus::Retry;
          }
          if (st.attached) out.attached = true;
          if (st.trace_id != 0) out.trace_id = st.trace_id;
          break;
        }
        case FrameType::Result: {
          ResultPayload rp;
          try {
            rp = decode_result(f.payload);
          } catch (const std::exception& e) {
            out.error = e.what();
            return AttemptStatus::Retry;
          }
          out.delivered = true;
          out.state = rp.state;
          out.error = rp.error;
          out.replayed = out.replayed || rp.replayed;
          out.degraded = rp.degraded;
          if (rp.trace_id != 0) out.trace_id = rp.trace_id;
          out.has_result = rp.has_result;
          if (rp.has_result) {
            out.result = sim::SimResult{};
            out.result.workload = rp.workload;
            out.result.accelerator = rp.accelerator;
            out.result.registry = rp.registry;
            out.result.finalize();
          }
          return AttemptStatus::Delivered;
        }
        case FrameType::Error: {
          ErrorPayload ep;
          try {
            ep = decode_error(f.payload);
          } catch (const std::exception& e) {
            out.error = e.what();
            return AttemptStatus::Retry;
          }
          out.last_error_code = ep.code;
          out.error = ep.message;
          return is_retryable(static_cast<ErrorCode>(ep.code))
                     ? AttemptStatus::Retry
                     : AttemptStatus::Fatal;
        }
        case FrameType::Drain:
          // Server is going away; in-flight Results may still follow, but a
          // conservative client reconnects elsewhere/later via the key.
          out.error = "server draining";
          return AttemptStatus::Retry;
        case FrameType::Ping:
          if (!send(FrameType::Pong, f.payload)) {
            out.error = "send pong failed";
            return AttemptStatus::Retry;
          }
          break;
        default:
          out.error = std::string("unexpected frame: ") + to_string(f.type);
          return AttemptStatus::Retry;
      }
    }
  }
}

}  // namespace

RunOutcome Client::run(const SubmitPayload& submit) {
  RunOutcome out;
  // Deterministic per-key jitter stream: two clients hammering the same
  // server spread their retries without sharing RNG state.
  BackoffConfig cfg = opts_.backoff;
  cfg.seed ^= fnv1a(submit.tenant + "\x1f" + submit.client_job_id);
  Backoff backoff(cfg);
  auto sleep_us = opts_.sleep_us != nullptr ? opts_.sleep_us : &default_sleep;

  for (std::size_t i = 0; i < opts_.max_attempts; ++i) {
    ++out.connections;
    switch (attempt(opts_, submit, out)) {
      case AttemptStatus::Delivered:
      case AttemptStatus::Fatal:
        return out;
      case AttemptStatus::Retry:
        break;
    }
    if (i + 1 < opts_.max_attempts) sleep_us(backoff.next_us());
  }
  return out;  // delivered == false: transport budget exhausted
}

}  // namespace alchemist::net
