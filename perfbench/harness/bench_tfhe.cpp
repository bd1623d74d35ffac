// tfhe_gates: bootstrapped gates of a seeded ripple-carry adder at
// TfheParams::set_i (blind rotation with two-prime NTT at N = 1024, then LWE
// keyswitch). Single-threaded; no RNS, encoder, pool fan-out or simulator.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/primes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "poly/ntt.h"
#include "tfhe/bootstrap.h"

namespace perfbench {
namespace {

using namespace alchemist;
using namespace alchemist::tfhe;

constexpr std::size_t kAdderBits = 8;
constexpr Torus kEighth = u64{1} << 61;  // gate outputs encrypt +-1/8
// Probe calls per traced op for the per-call external product time.
constexpr int kExternalProductProbes = 4;

enum class Gate { Xor, And, Or };

struct Step {
  Gate gate;
  std::size_t a, b, out;
};

// Gate list of a kAdderBits ripple-carry adder over wires
// [a_0..a_{n-1}, b_0..b_{n-1}, carry_in, ...]; sum bits and carry out are
// listed in `outputs`, least significant first.
struct Adder {
  std::vector<Step> steps;
  std::vector<std::size_t> outputs;
  std::size_t wires = 0;
};

Adder make_adder() {
  Adder ad;
  const std::size_t n = kAdderBits;
  std::size_t next = 2 * n + 1;
  std::size_t carry = 2 * n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = next++, s = next++, g = next++, q = next++, c = next++;
    ad.steps.push_back({Gate::Xor, i, n + i, p});
    ad.steps.push_back({Gate::Xor, p, carry, s});
    ad.steps.push_back({Gate::And, i, n + i, g});
    ad.steps.push_back({Gate::And, p, carry, q});
    ad.steps.push_back({Gate::Or, g, q, c});
    ad.outputs.push_back(s);
    carry = c;
  }
  ad.outputs.push_back(carry);
  ad.wires = next;
  return ad;
}

bool plain_gate(Gate g, bool x, bool y) {
  switch (g) {
    case Gate::Xor: return x != y;
    case Gate::And: return x && y;
    case Gate::Or: return x || y;
  }
  return false;
}

LweSample run_gate(Gate g, const LweSample& x, const LweSample& y, const BootstrapContext& bc) {
  switch (g) {
    case Gate::Xor: return gate_xor(x, y, bc);
    case Gate::And: return gate_and(x, y, bc);
    case Gate::Or: return gate_or(x, y, bc);
  }
  return {};
}

struct Tfhe {
  TfheParams params;
  LweKey lwe_key;
  std::unique_ptr<BootstrapContext> bc;
};

std::unique_ptr<Tfhe> tfhe_setup(std::uint64_t seed) {
  auto t = std::make_unique<Tfhe>();
  t->params = TfheParams::set_i();
  Rng rng(seed);
  t->lwe_key = lwe_keygen(t->params.n_lwe, rng);
  const TrlweKey trlwe_key = trlwe_keygen(t->params, rng);
  t->bc = std::make_unique<BootstrapContext>(
      make_bootstrap_context(t->params, t->lwe_key, trlwe_key, rng));
  // Warm-up gate: fills the lazy NTT tables.
  const LweSample one = encrypt_bit(true, t->lwe_key, t->params.lwe_sigma, rng);
  (void)gate_and(one, one, *t->bc);
  return t;
}

// One pass of adders over seeded operands: each op is the next gate. Wire
// values are kept in the clear beside the ciphertexts to check every gate.
class AdderStream {
 public:
  AdderStream(const Tfhe& t, std::uint64_t seed)
      : t_(t), adder_(make_adder()), gen_(seed), rng_(seed + 1) {
    start_adder();
  }

  const Step& step() const { return adder_.steps[next_]; }
  const LweSample& wire(std::size_t w) const { return ct_[w]; }

  // Stores a gate output, checks it, and starts a new adder after the last
  // gate (checking the decrypted sum against the plaintext one). Returns the
  // output's phase error as a fraction of the torus.
  double complete(LweSample out, Report& rep) {
    const Step& s = step();
    pt_[s.out] = plain_gate(s.gate, pt_[s.a], pt_[s.b]);
    if (decrypt_bit(out, t_.lwe_key) != pt_[s.out]) rep.fail("gate output bit mismatch");
    const Torus want = pt_[s.out] ? kEighth : ~kEighth + 1;
    const double err =
        std::abs(static_cast<double>(static_cast<std::int64_t>(lwe_phase(out, t_.lwe_key) - want))) /
        std::ldexp(1.0, 64);
    ct_[s.out] = std::move(out);
    if (++next_ == adder_.steps.size()) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < adder_.outputs.size(); ++i) {
        if (decrypt_bit(ct_[adder_.outputs[i]], t_.lwe_key)) sum |= std::uint64_t{1} << i;
      }
      if (sum != lhs_ + rhs_) rep.fail("adder sum mismatch");
      start_adder();
    }
    return err;
  }

 private:
  void start_adder() {
    next_ = 0;
    ct_.assign(adder_.wires, {});
    pt_.assign(adder_.wires, false);
    lhs_ = gen_.below(std::uint64_t{1} << kAdderBits);
    rhs_ = gen_.below(std::uint64_t{1} << kAdderBits);
    for (std::size_t i = 0; i < kAdderBits; ++i) {
      set_input(i, (lhs_ >> i) & 1);
      set_input(kAdderBits + i, (rhs_ >> i) & 1);
    }
    set_input(2 * kAdderBits, false);
  }
  void set_input(std::size_t w, bool bit) {
    pt_[w] = bit;
    ct_[w] = encrypt_bit(bit, t_.lwe_key, t_.params.lwe_sigma, rng_);
  }

  const Tfhe& t_;
  Adder adder_;
  InputGen gen_;
  Rng rng_;
  std::size_t next_ = 0;
  std::uint64_t lhs_ = 0, rhs_ = 0;
  std::vector<LweSample> ct_;
  std::vector<bool> pt_;
};

// The gate's linear step, as gate_xor / gate_and / gate_or compute it before
// bootstrapping.
LweSample gate_linear(Gate g, const LweSample& x, const LweSample& y) {
  const std::size_t n = x.dimension();
  LweSample lin = lwe_trivial(n, g == Gate::Xor ? u64{1} << 62
                                 : g == Gate::And ? ~kEighth + 1
                                                  : kEighth);
  LweSample sum = x;
  sum += y;
  if (g == Gate::Xor) sum.mul_int(2);
  lin += sum;
  return lin;
}

}  // namespace

void run_tfhe_gates(const Options& opt, Report& rep) {
  ThreadPool::set_threads(kTfhePoolThreads);
  const auto t = repeated_setup([&] { return tfhe_setup(opt.seed); }, rep);
  const BootstrapContext& bc = *t->bc;
  const std::size_t n = t->params.degree;

  double max_err = 0;
  std::vector<double> op_ms;
  {
    AdderStream stream(*t, opt.seed);
    // ~3-4.5 gates/s: 75-110 samples in a 25 s run, so p75 keeps 18+ beyond it.
    op_ms = untraced_phase(opt.untraced_seconds(), 75, [&](std::size_t i) {
      const Step& s = stream.step();
      ++rep.attempted;
      const auto t0 = Clock::now();
      LweSample out = run_gate(s.gate, stream.wire(s.a), stream.wire(s.b), bc);
      const double ms = since_ms(t0);
      const double err = stream.complete(std::move(out), rep);
      if (i < kPrefixOps) max_err = std::max(max_err, err);
      return ms;
    }, rep);
  }
  rep.metrics["precision_bits"] = -std::log2(max_err);

  if (opt.trace) {
    // Traced gates are composed from the public PBS steps (blind_rotate,
    // sample_extract, keyswitch) so each is a span inside the op; the gate's
    // linear step and modulus switch are the residual.
    AdderStream stream(*t, opt.seed + 7);
    SpanRecorder rec;
    std::vector<double> traced_ms, ext_prod_us, ntt_us;
    double ext_prod_calls = 0;
    std::size_t counted = 0;
    const TorusPoly tv = make_constant_test_poly(n, kEighth);
    const u64 q = generate_ntt_primes(62, n, 1)[0];
    const NttTable& table = get_ntt_table(q, n);
    closed_loop(opt.seconds / 2, [&](std::size_t i) {
      const Step& s = stream.step();
      ++rep.attempted;
      rec.start_op("gate");
      const auto t0 = Clock::now();
      const LweSample lin = gate_linear(s.gate, stream.wire(s.a), stream.wire(s.b));
      std::vector<u64> bara(lin.dimension());
      for (std::size_t k = 0; k < bara.size(); ++k) bara[k] = torus_to_z2n(lin.a[k], n);
      TrlweSample acc;
      LweSample extracted, out;
      {
        Span sp(&rec, "blind_rotate");
        acc = blind_rotate(trlwe_trivial(t->params, tv), bara, torus_to_z2n(lin.b, n), bc.bk);
      }
      {
        Span sp(&rec, "sample_extract");
        extracted = sample_extract(acc);
      }
      {
        Span sp(&rec, "lwe_keyswitch");
        out = keyswitch(extracted, bc.ksk);
      }
      const double ms = since_ms(t0);
      rec.finish_op();
      // Exact count over the fixed prefix: one external product per nonzero
      // rotation of the blind rotation.
      if (i < kPrefixOps) {
        ext_prod_calls += static_cast<double>(
            std::count_if(bara.begin(), bara.end(), [&](u64 v) { return v % (2 * n) != 0; }));
        ++counted;
      }
      // Per-call probes on this op's own operands.
      double us = 0;
      for (int k = 0; k < kExternalProductProbes; ++k) {
        us += time_us([&] { (void)external_product(bc.bk[k], acc); });
      }
      ext_prod_us.push_back(us / kExternalProductProbes);
      std::vector<u64> residues(n);
      for (std::size_t k = 0; k < n; ++k) residues[k] = acc.b[k] % q;
      ntt_us.push_back(time_us([&] {
        table.forward(residues);
        table.inverse(residues);
      }) / 2);
      stream.complete(std::move(out), rep);
      return ms;
    }, traced_ms);
    rep.metrics["tfhe.blind_rotate.ms"] = rec.inclusive_us("blind_rotate") / 1e3;
    rep.metrics["tfhe.sample_extract.us"] = rec.inclusive_us("sample_extract");
    rep.metrics["tfhe.lwe_keyswitch.ms"] = rec.inclusive_us("lwe_keyswitch") / 1e3;
    rep.metrics["tfhe.gate.residual_us"] = rec.self_us("gate");
    rep.metrics["tfhe.external_product.us"] = median(ext_prod_us);
    rep.metrics["tfhe.external_product.calls_per_op"] =
        ext_prod_calls / static_cast<double>(counted);
    rep.metrics["poly.ntt.us_per_call"] = median(ntt_us);
    record_split(rec, "gate", op_ms, traced_ms, rep);
  }
}

}  // namespace perfbench
