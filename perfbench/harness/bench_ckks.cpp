// CKKS workloads: ckks_helr (ciphertext-heavy: keyswitch, ModUp/ModDown, NTT)
// and ckks_client (plaintext-heavy: encoder, encryptor, decryptor).
#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <optional>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/thread_pool.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace alchemist;
using namespace alchemist::ckks;
using cd = std::complex<double>;

// Any slot error above 2^-kMinPrecisionBits fails the op.
constexpr double kMinPrecisionBits = 12;

// Independent O(N log N) decoder used only to check results. Slot j is
// m(zeta^(5^j)) / scale with zeta = exp(i*pi/N); all odd powers of zeta come
// from one size-N FFT of the twisted coefficients m_k * zeta^k.
class FftDecoder {
 public:
  explicit FftDecoder(std::size_t n) : n_(n), twist_(n), roots_(n / 2), slot_index_(n / 2) {
    for (std::size_t k = 0; k < n; ++k) twist_[k] = std::polar(1.0, M_PI * double(k) / double(n));
    for (std::size_t k = 0; k < n / 2; ++k) {
      roots_[k] = std::polar(1.0, 2 * M_PI * double(k) / double(n));
    }
    std::size_t g = 1;
    for (std::size_t j = 0; j < n / 2; ++j) {
      slot_index_[j] = (g - 1) / 2;
      g = (g * 5) % (2 * n);
    }
  }

  std::vector<cd> decode(const std::vector<double>& coeffs, double scale) const {
    std::vector<cd> a(n_);
    for (std::size_t k = 0; k < n_; ++k) a[k] = coeffs[k] * twist_[k];
    for (std::size_t i = 1, j = 0; i < n_; ++i) {
      std::size_t bit = n_ >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    for (std::size_t len = 2; len <= n_; len <<= 1) {
      const std::size_t step = n_ / len;
      for (std::size_t i = 0; i < n_; i += len) {
        for (std::size_t k = 0; k < len / 2; ++k) {
          const cd u = a[i + k];
          const cd v = a[i + k + len / 2] * roots_[k * step];
          a[i + k] = u + v;
          a[i + k + len / 2] = u - v;
        }
      }
    }
    std::vector<cd> slots(n_ / 2);
    for (std::size_t j = 0; j < n_ / 2; ++j) slots[j] = a[slot_index_[j]] / scale;
    return slots;
  }

 private:
  std::size_t n_;
  std::vector<cd> twist_, roots_;
  std::vector<std::size_t> slot_index_;
};

double max_error(const std::vector<cd>& got, const std::vector<double>& want) {
  double err = 0;
  for (std::size_t j = 0; j < want.size(); ++j) err = std::max(err, std::abs(got[j] - want[j]));
  return err;
}

// Checks one op's decoded slots; precision_bits is the worst slot error over
// the first kPrefixOps ops.
class SlotChecker {
 public:
  void check(const std::vector<cd>& got, const std::vector<double>& want, Report& rep) {
    const double err = max_error(got, want);
    const double bits = err > 0 ? -std::log2(err) : 64.0;
    if (!(bits >= kMinPrecisionBits)) {
      rep.fail("slot error 2^" + std::to_string(-bits) + " above tolerance");
    }
    if (checked_++ < kPrefixOps) precision_bits_ = std::min(precision_bits_, bits);
  }
  double precision_bits() const { return precision_bits_; }

 private:
  std::size_t checked_ = 0;
  double precision_bits_ = 64.0;
};

// Per-channel NTT cost measured on an operand of the op: inverse then forward
// transform of a copy. Returns microseconds per single-channel transform.
double ntt_us_per_call(const RnsPoly& ntt_form) {
  RnsPoly p = ntt_form;
  const double inv = time_us([&] { p.to_coeff(); });
  const double fwd = time_us([&] { p.to_ntt(); });
  return (inv + fwd) / (2.0 * static_cast<double>(p.num_channels()));
}

// --- ckks_helr ----------------------------------------------------------------

// HELR's degree-3 least-squares sigmoid on [-8, 8] (as in
// examples/helr_training.cpp), folded with the learning rate.
constexpr double kLearningRate = 0.1;
constexpr double kSig0 = 0.5 * kLearningRate;
constexpr double kSig1 = -1.20096 / 8.0 * kLearningRate;
constexpr double kSig3 = 0.81562 / 512.0 * kLearningRate;
constexpr std::size_t kHelrInputs = 2;

CkksParams helr_params() {
  // N = 2^13, five ciphertext primes: one iteration consumes four levels.
  return CkksParams::toy(8192, 5, 3);
}

struct HelrInput {
  Ciphertext x, w;
  std::vector<double> expected;
};

struct Helr {
  ContextPtr ctx;
  std::unique_ptr<KeyGenerator> keygen;
  RelinKeys rk;
  GaloisKeys gk;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<Evaluator> ev;
  std::unique_ptr<Decryptor> dec;
  std::unique_ptr<FftDecoder> check_decoder;
  Plaintext c1, c3;
  std::optional<Plaintext> c0;  // level/scale known after the warm-up op
  std::vector<int> steps;
  std::vector<HelrInput> inputs;
};

// What a traced op hands to the layer probes: the operands of every multiply
// and the input of the first rotation.
struct HelrProbes {
  std::vector<std::pair<Ciphertext, Ciphertext>> mul_operands;
  std::optional<Ciphertext> rotate_input;
};

Ciphertext helr_op(Helr& h, const HelrInput& in, SpanRecorder* rec, HelrProbes* probes) {
  const Evaluator& ev = *h.ev;
  auto multiply = [&](const Ciphertext& a, const Ciphertext& b) {
    if (probes) probes->mul_operands.emplace_back(a, b);
    Span sp(rec, "multiply");
    return ev.multiply(a, b, h.rk);
  };
  auto rescale = [&](const Ciphertext& a) {
    Span sp(rec, "rescale");
    return ev.rescale(a);
  };
  auto mul_plain = [&](const Ciphertext& a, const Plaintext& p) {
    Span sp(rec, "mul_plain");
    return ev.mul_plain(a, p);
  };
  auto add = [&](const Ciphertext& a, const Ciphertext& b) {
    Span sp(rec, "add");
    return ev.add(a, b);
  };

  // Encrypted dot product, then rotate-and-sum into every slot.
  Ciphertext t = rescale(multiply(in.x, in.w));
  for (int step : h.steps) {
    if (probes && !probes->rotate_input) probes->rotate_input = t;
    Ciphertext r;
    {
      Span sp(rec, "rotate");
      r = ev.rotate(t, step, h.gk);
    }
    t = add(t, r);
  }
  // Degree-3 sigmoid: c3*t^3 + c1*t + c0.
  const Ciphertext t2 = rescale(multiply(t, t));
  const Ciphertext a = ev.normalize_scale(rescale(mul_plain(t, h.c3)), t2.scale);
  const Ciphertext t3 = rescale(multiply(t2, a));
  const Ciphertext b =
      ev.normalize_scale(ev.mod_drop(rescale(mul_plain(t, h.c1)), t3.level), t3.scale);
  Ciphertext sig = add(t3, b);
  if (!h.c0) h.c0 = h.encoder->encode_constant(kSig0, sig.level, sig.scale);
  {
    Span sp(rec, "add");
    sig = ev.add_plain(sig, *h.c0);
  }
  // Update: w + sigma(t) * x.
  const Ciphertext g = rescale(multiply(sig, ev.mod_drop(in.x, sig.level)));
  return add(ev.normalize_scale(ev.mod_drop(in.w, g.level), g.scale), g);
}

std::unique_ptr<Helr> helr_setup(std::uint64_t seed) {
  auto h = std::make_unique<Helr>();
  h->ctx = std::make_shared<CkksContext>(helr_params());
  const CkksParams& p = h->ctx->params();
  h->keygen = std::make_unique<KeyGenerator>(h->ctx, seed);
  h->rk = h->keygen->make_relin_keys();
  for (std::size_t s = 1; s < p.slots(); s <<= 1) h->steps.push_back(static_cast<int>(s));
  h->gk = h->keygen->make_galois_keys(h->steps);
  h->encoder = std::make_unique<CkksEncoder>(h->ctx);
  h->ev = std::make_unique<Evaluator>(h->ctx);
  h->dec = std::make_unique<Decryptor>(h->ctx, h->keygen->secret_key(), false);
  h->check_decoder = std::make_unique<FftDecoder>(p.n);
  Encryptor encryptor(h->ctx, h->keygen->make_public_key(), seed + 1);
  const std::size_t top = p.num_levels;
  h->c1 = h->encoder->encode_constant(kSig1, top - 1, p.scale());
  h->c3 = h->encoder->encode_constant(kSig3, top - 1, p.scale());

  InputGen gen(seed);
  for (std::size_t k = 0; k < kHelrInputs; ++k) {
    std::vector<double> x(p.slots()), w(p.slots());
    for (auto& v : x) v = gen.uniform(-0.1, 0.1);
    for (auto& v : w) v = gen.uniform(-0.1, 0.1);
    double t = 0;
    for (std::size_t j = 0; j < x.size(); ++j) t += x[j] * w[j];
    const double sig = kSig0 + kSig1 * t + kSig3 * t * t * t;
    HelrInput in;
    in.expected.resize(x.size());
    for (std::size_t j = 0; j < x.size(); ++j) in.expected[j] = w[j] + sig * x[j];
    in.x = encryptor.encrypt(h->encoder->encode(x, top, p.scale()));
    in.w = encryptor.encrypt(h->encoder->encode(w, top, p.scale()));
    h->inputs.push_back(std::move(in));
  }
  // Warm-up op: fills the lazy NTT tables and encodes c0 at its level.
  (void)helr_op(*h, h->inputs[0], nullptr, nullptr);
  return h;
}

// Layer probes for one traced op: keyswitch under each multiply and under one
// rotation, and the ModUp / BConv / ModDown / NTT calls under keyswitch, all
// on this op's own operands at their own levels.
struct HelrLayers {
  double relin_us = 0, relin_ks_us = 0, rot_ks_us = 0;
  double modup_us = 0, bconv_us = 0, moddown_us = 0, ntt_us = 0;
};

HelrLayers probe_helr_layers(const Helr& h, const HelrProbes& pr) {
  HelrLayers out;
  const Evaluator& ev = *h.ev;
  for (const auto& [a, b] : pr.mul_operands) {
    RnsPoly d2 = a.c1;
    d2 *= b.c1;
    RnsPoly d0 = a.c0, d1 = a.c1;
    const auto t0 = Clock::now();
    std::pair<RnsPoly, RnsPoly> ks;
    out.relin_ks_us += time_us([&] { ks = ev.keyswitch(d2, a.level, h.rk.key); });
    d0 += ks.first;
    d1 += ks.second;
    out.relin_us += since_us(t0);
  }
  const Ciphertext& rin = *pr.rotate_input;
  const u64 g = h.ctx->galois_elt_for_rotation(h.steps.front());
  const RnsPoly rot_c1 = rin.c1.automorphism(g);
  out.rot_ks_us = time_us([&] { (void)ev.keyswitch(rot_c1, rin.level, h.gk.at(g)); });

  // Digit-0 ModUp exactly as keyswitch performs it: take the digit's residues
  // and base-convert them onto every other channel of Q*P.
  RnsPoly coeff = rot_c1;
  coeff.to_coeff();
  const auto ext_basis = h.ctx->extended_basis_at(rin.level);
  const auto [first, count] = h.ctx->digit_range(0, rin.level);
  RnsPoly ext(h.ctx->degree(), ext_basis, RnsPoly::Form::Coeff);
  out.modup_us = time_us([&] {
    const RnsPoly raw = coeff.extract_channels(first, count);
    std::vector<u64> group(ext_basis.begin() + first, ext_basis.begin() + first + count);
    std::vector<u64> others;
    for (std::size_t c = 0; c < ext_basis.size(); ++c) {
      if (c < first || c >= first + count) others.push_back(ext_basis[c]);
    }
    RnsPoly converted;
    out.bconv_us = time_us([&] { converted = BConv(group, others).apply(raw); });
    std::size_t other = 0;
    for (std::size_t c = 0; c < ext_basis.size(); ++c) {
      const auto src = (c >= first && c < first + count) ? raw.channel(c - first)
                                                         : converted.channel(other++);
      std::copy(src.begin(), src.end(), ext.channel(c).begin());
    }
  });
  const std::size_t special = h.ctx->params().num_special();
  out.moddown_us = time_us([&] { (void)moddown(ext, special); });
  RnsPoly ext_ntt = ext;
  ext_ntt.to_ntt();
  out.ntt_us = ntt_us_per_call(ext_ntt);
  return out;
}

}  // namespace

void run_ckks_helr(const Options& opt, Report& rep) {
  ThreadPool::set_threads(kCkksPoolThreads);
  const auto h = repeated_setup([&] { return helr_setup(opt.seed); }, rep);
  {
    // The checking decoder must agree with the library's own decoder.
    const Ciphertext out = helr_op(*h, h->inputs[0], nullptr, nullptr);
    const auto coeffs = h->dec->decrypt_coeffs(out);
    const auto fast = h->check_decoder->decode(coeffs, out.scale);
    const auto ref = h->encoder->decode_centered(coeffs, out.scale);
    double gap = 0;
    for (std::size_t j = 0; j < ref.size(); ++j) gap = std::max(gap, std::abs(fast[j] - ref[j]));
    ++rep.attempted;
    if (!(gap < 1e-9)) rep.fail("check decoder disagrees with CkksEncoder::decode");
  }

  SlotChecker checker;
  std::size_t next_input = 0;
  auto run_op = [&](SpanRecorder* rec, HelrProbes* probes) {
    const HelrInput& in = h->inputs[next_input++ % h->inputs.size()];
    ++rep.attempted;
    if (rec) rec->start_op("op");
    const auto t0 = Clock::now();
    const Ciphertext out = helr_op(*h, in, rec, probes);
    const double ms = since_ms(t0);
    if (rec) rec->finish_op();
    checker.check(h->check_decoder->decode(h->dec->decrypt_coeffs(out), out.scale),
                  in.expected, rep);
    return ms;
  };

  // ~9-11 ops/s: 200-275 samples in a 25 s run, so p90 keeps 20+ beyond it.
  const std::vector<double> op_ms = untraced_phase(
      opt.untraced_seconds(), 90, [&](std::size_t) { return run_op(nullptr, nullptr); }, rep);

  if (opt.trace) {
    SpanRecorder rec;
    std::vector<HelrLayers> layers;
    std::vector<double> traced_ms;
    double ks_calls = 0, modup_calls = 0;
    auto traced_op = [&](std::size_t) {
      HelrProbes probes;
      const double ms = run_op(&rec, &probes);
      layers.push_back(probe_helr_layers(*h, probes));
      ks_calls = static_cast<double>(probes.mul_operands.size() + h->steps.size());
      modup_calls = 0;
      for (const auto& [a, b] : probes.mul_operands) modup_calls += h->ctx->num_digits_at(a.level);
      modup_calls += static_cast<double>(h->steps.size()) *
                     h->ctx->num_digits_at(probes.rotate_input->level);
      return ms;
    };
    closed_loop(opt.seconds / 2, traced_op, traced_ms);

    auto mean = [&](double HelrLayers::*field) {
      double s = 0;
      for (const auto& l : layers) s += l.*field;
      return s / static_cast<double>(layers.size());
    };
    const double n_rot = static_cast<double>(h->steps.size());
    const double rot_ks = mean(&HelrLayers::rot_ks_us);
    rep.metrics["ckks.keyswitch.calls_per_op"] = ks_calls;
    rep.metrics["ckks.keyswitch.us_per_call"] =
        (mean(&HelrLayers::relin_ks_us) + n_rot * rot_ks) / ks_calls;
    rep.metrics["ckks.multiply.self_us"] =
        rec.inclusive_us("multiply") - mean(&HelrLayers::relin_us);
    rep.metrics["ckks.relinearize.self_us"] =
        mean(&HelrLayers::relin_us) - mean(&HelrLayers::relin_ks_us);
    rep.metrics["ckks.rotate.self_us"] = rec.inclusive_us("rotate") - n_rot * rot_ks;
    rep.metrics["ckks.rescale.self_us"] = rec.self_us("rescale");
    rep.metrics["ckks.mul_plain.self_us"] = rec.self_us("mul_plain");
    rep.metrics["ckks.add.self_us"] = rec.self_us("add");
    rep.metrics["ckks.residual_us"] = rec.self_us("op");
    rep.metrics["poly.modup.calls_per_op"] = modup_calls;
    rep.metrics["poly.modup.us_per_call"] = mean(&HelrLayers::modup_us);
    rep.metrics["poly.bconv.us_per_call"] = mean(&HelrLayers::bconv_us);
    rep.metrics["poly.moddown.us_per_call"] = mean(&HelrLayers::moddown_us);
    rep.metrics["poly.ntt.us_per_call"] = mean(&HelrLayers::ntt_us);
    record_split(rec, "op", op_ms, traced_ms, rep);
  }
  rep.metrics["precision_bits"] = checker.precision_bits();
}

// --- ckks_client ----------------------------------------------------------------

namespace {

CkksParams client_params() {
  // N = 2^12: one rescale deep, no keyswitching keys.
  return CkksParams::toy(4096, 2, 1);
}

struct Client {
  ContextPtr ctx;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<Encryptor> encryptor;
  std::unique_ptr<Evaluator> ev;
  std::unique_ptr<Decryptor> dec;
  std::vector<double> weight, bias;
  Plaintext weight_pt;
  Ciphertext bias_ct;
};

std::unique_ptr<Client> client_setup(std::uint64_t seed) {
  auto c = std::make_unique<Client>();
  c->ctx = std::make_shared<CkksContext>(client_params());
  const CkksParams& p = c->ctx->params();
  c->keygen = std::make_unique<KeyGenerator>(c->ctx, seed);
  c->encoder = std::make_unique<CkksEncoder>(c->ctx);
  c->encryptor = std::make_unique<Encryptor>(c->ctx, c->keygen->make_public_key(), seed + 1);
  c->ev = std::make_unique<Evaluator>(c->ctx);
  c->dec = std::make_unique<Decryptor>(c->ctx, c->keygen->secret_key(), false);
  InputGen gen(seed + 2);
  c->weight.resize(p.slots());
  c->bias.resize(p.slots());
  for (auto& v : c->weight) v = gen.uniform(-1, 1);
  for (auto& v : c->bias) v = gen.uniform(-1, 1);
  c->weight_pt = c->encoder->encode(c->weight, p.num_levels, p.scale());
  // The bias is added after the rescale, so it lives one level down at the
  // rescaled product scale.
  const double rescaled =
      p.scale() * c->weight_pt.scale / static_cast<double>(c->ctx->q_moduli()[p.num_levels - 1]);
  c->bias_ct = c->encryptor->encrypt(c->encoder->encode(c->bias, p.num_levels - 1, rescaled));
  return c;
}

}  // namespace

void run_ckks_client(const Options& opt, Report& rep) {
  ThreadPool::set_threads(kCkksPoolThreads);
  const auto c = repeated_setup([&] { return client_setup(opt.seed); }, rep);

  const CkksParams& p = c->ctx->params();
  InputGen gen(opt.seed);
  SlotChecker checker;
  std::vector<double> values(p.slots()), expected(p.slots());
  std::vector<double> ntt_us, moddown_us;
  auto run_op = [&](SpanRecorder* rec) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      values[j] = gen.uniform(-1, 1);
      expected[j] = values[j] * c->weight[j] + c->bias[j];
    }
    ++rep.attempted;
    if (rec) rec->start_op("op");
    const auto t0 = Clock::now();
    Plaintext pt;
    Ciphertext ct;
    std::vector<double> coeffs;
    std::vector<cd> slots;
    {
      Span sp(rec, "encode");
      pt = c->encoder->encode(values, p.num_levels, p.scale());
    }
    {
      Span sp(rec, "encrypt");
      ct = c->encryptor->encrypt(pt);
    }
    {
      Span sp(rec, "mul_plain");
      ct = c->ev->mul_plain(ct, c->weight_pt);
    }
    const Ciphertext before_rescale = rec ? ct : Ciphertext{};
    {
      Span sp(rec, "rescale");
      ct = c->ev->rescale(ct);
    }
    {
      Span sp(rec, "add");
      ct = c->ev->add(ct, c->bias_ct);
    }
    {
      Span sp(rec, "decrypt");
      coeffs = c->dec->decrypt_coeffs(ct);
    }
    {
      Span sp(rec, "decode");
      slots = c->encoder->decode_centered(coeffs, ct.scale);
    }
    checker.check(slots, expected, rep);
    const double ms = since_ms(t0);
    if (rec) {
      rec->finish_op();
      // Layer probes on this op's own operands: the NTT and the ModDown that
      // rescale performs.
      ntt_us.push_back(ntt_us_per_call(before_rescale.c0));
      RnsPoly c0 = before_rescale.c0;
      c0.to_coeff();
      moddown_us.push_back(time_us([&] { (void)moddown(c0, 1); }));
    }
    return ms;
  };

  // ~13-16 ops/s: 310-390 samples in a 25 s run, so p95 keeps 15+ beyond it.
  const std::vector<double> op_ms = untraced_phase(
      opt.untraced_seconds(), 95, [&](std::size_t) { return run_op(nullptr); }, rep);

  if (opt.trace) {
    SpanRecorder rec;
    std::vector<double> traced_ms;
    closed_loop(opt.seconds / 2, [&](std::size_t) { return run_op(&rec); }, traced_ms);
    rep.metrics["ckks.encode.us"] = rec.inclusive_us("encode");
    rep.metrics["ckks.encrypt.us"] = rec.inclusive_us("encrypt");
    rep.metrics["ckks.decrypt.us"] = rec.inclusive_us("decrypt");
    rep.metrics["ckks.decode.us"] = rec.inclusive_us("decode");
    rep.metrics["ckks.mul_plain.self_us"] = rec.self_us("mul_plain");
    rep.metrics["ckks.add.self_us"] = rec.self_us("add");
    rep.metrics["ckks.rescale.self_us"] = rec.self_us("rescale");
    rep.metrics["ckks.residual_us"] = rec.self_us("op");
    rep.metrics["ckks.keyswitch.calls_per_op"] = 0;
    rep.metrics["poly.modup.calls_per_op"] = 0;
    rep.metrics["poly.ntt.us_per_call"] = median(ntt_us);
    rep.metrics["poly.moddown.us_per_call"] = median(moddown_us);
    record_split(rec, "op", op_ms, traced_ms, rep);
  }
  rep.metrics["precision_bits"] = checker.precision_bits();
}

}  // namespace perfbench
