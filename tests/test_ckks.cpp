#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <iostream>
#include <limits>
#include <memory>
#include <utility>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/params.h"
#include "common/rng.h"

namespace alchemist::ckks {
namespace {

using Complex = std::complex<double>;

struct CkksFixture {
  ContextPtr ctx;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<Encryptor> encryptor;
  std::unique_ptr<Decryptor> decryptor;
  std::unique_ptr<Evaluator> evaluator;

  explicit CkksFixture(const CkksParams& params) {
    ctx = std::make_shared<CkksContext>(params);
    encoder = std::make_unique<CkksEncoder>(ctx);
    keygen = std::make_unique<KeyGenerator>(ctx, /*seed=*/7);
    encryptor = std::make_unique<Encryptor>(ctx, keygen->make_public_key());
    decryptor = std::make_unique<Decryptor>(ctx, keygen->secret_key());
    evaluator = std::make_unique<Evaluator>(ctx);
  }
};

std::vector<Complex> random_message(std::size_t count, u64 seed, double mag = 1.0) {
  Rng rng(seed);
  std::vector<Complex> z(count);
  for (Complex& v : z) {
    v = {mag * (2 * rng.uniform_real() - 1), mag * (2 * rng.uniform_real() - 1)};
  }
  return z;
}

double max_error(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double err = 0;
  for (std::size_t i = 0; i < a.size(); ++i) err = std::max(err, std::abs(a[i] - b[i]));
  return err;
}

TEST(CkksContext, ModuliChainShape) {
  CkksParams p = CkksParams::toy(1024, 4, 2);
  CkksContext ctx(p);
  EXPECT_EQ(ctx.q_moduli().size(), 4u);
  EXPECT_EQ(ctx.p_moduli().size(), 2u);  // alpha = ceil(4/2) = 2
  EXPECT_EQ(ctx.basis_at(2).size(), 2u);
  EXPECT_EQ(ctx.extended_basis_at(2).size(), 4u);
  EXPECT_EQ(ctx.num_digits_at(4), 2u);
  EXPECT_EQ(ctx.num_digits_at(3), 2u);
  EXPECT_EQ(ctx.num_digits_at(2), 1u);
  auto [first, count] = ctx.digit_range(1, 3);
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(count, 1u);  // truncated tail digit
  EXPECT_THROW(ctx.digit_range(1, 2), std::invalid_argument);
  EXPECT_THROW(ctx.basis_at(0), std::invalid_argument);
  EXPECT_THROW(ctx.basis_at(5), std::invalid_argument);
}

TEST(CkksContext, GaloisElements) {
  CkksParams p = CkksParams::toy(1024, 2, 1);
  CkksContext ctx(p);
  EXPECT_EQ(ctx.galois_elt_for_rotation(0), 1u);
  EXPECT_EQ(ctx.galois_elt_for_rotation(1), 5u);
  EXPECT_EQ(ctx.galois_elt_for_rotation(2), 25u);
  EXPECT_EQ(ctx.galois_elt_conjugate(), 2047u);
  // Negative steps normalize to slots - |steps|.
  EXPECT_EQ(ctx.galois_elt_for_rotation(-1), ctx.galois_elt_for_rotation(511));
}

TEST(CkksEncoder, EncodeDecodeRoundTrip) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const auto z = random_message(f.encoder->slots(), 1);
  const Plaintext pt = f.encoder->encode(std::span<const Complex>(z), 3,
                                         f.ctx->params().scale());
  const auto decoded = f.encoder->decode(pt);
  EXPECT_LT(max_error(z, decoded), 1e-7);
}

TEST(CkksEncoder, ZeroPaddingAndScalar) {
  CkksFixture f(CkksParams::toy(1024, 2, 1));
  std::vector<Complex> partial = {{1.0, 0.0}, {2.0, -1.0}};
  const Plaintext pt = f.encoder->encode(std::span<const Complex>(partial), 2,
                                         f.ctx->params().scale());
  const auto decoded = f.encoder->decode(pt);
  EXPECT_NEAR(std::abs(decoded[0] - partial[0]), 0.0, 1e-7);
  EXPECT_NEAR(std::abs(decoded[1] - partial[1]), 0.0, 1e-7);
  for (std::size_t i = 2; i < decoded.size(); ++i) {
    EXPECT_LT(std::abs(decoded[i]), 1e-7);
  }

  const Plaintext ps = f.encoder->encode_scalar({0.5, 0.25}, 2, f.ctx->params().scale());
  const auto ds = f.encoder->decode(ps);
  for (const Complex& v : ds) EXPECT_LT(std::abs(v - Complex{0.5, 0.25}), 1e-7);
}

TEST(CkksEncoder, RejectsBadArguments) {
  CkksFixture f(CkksParams::toy(1024, 2, 1));
  std::vector<Complex> too_many(f.encoder->slots() + 1);
  EXPECT_THROW(
      f.encoder->encode(std::span<const Complex>(too_many), 2, 1024.0),
      std::invalid_argument);
  std::vector<Complex> ok(4);
  EXPECT_THROW(f.encoder->encode(std::span<const Complex>(ok), 2, -1.0),
               std::invalid_argument);

  // NaN passes `<= 0` and `>= 2^62` tests alike; it must not reach llround.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(f.encoder->encode(std::span<const Complex>(ok), 2, nan),
               std::invalid_argument);
  const std::vector<Complex> nan_value = {{0.5, 0.0}, {nan, 0.0}};
  EXPECT_THROW(f.encoder->encode(std::span<const Complex>(nan_value), 2, 1024.0),
               std::invalid_argument);
  const std::vector<Complex> inf_value = {{0.0, inf}};
  EXPECT_THROW(f.encoder->encode(std::span<const Complex>(inf_value), 2, 1024.0),
               std::invalid_argument);
  EXPECT_THROW(f.encoder->encode_constant({0.5, 0.0}, 2, nan), std::invalid_argument);
  EXPECT_THROW(f.encoder->encode_constant({nan, 0.0}, 2, 1024.0), std::invalid_argument);
  EXPECT_THROW(f.encoder->encode_constant({0.0, inf}, 2, 1024.0), std::invalid_argument);
}

// The dense O(N*slots) canonical embedding, kept here as the reference for
// the FFT encoder: slot j is evaluated at zeta_j = omega^(5^j mod 2N) with
// omega = exp(i*pi/N).
class ReferenceEmbedding {
 public:
  explicit ReferenceEmbedding(std::size_t n) : n_(n), omega_powers_(2 * n), rot_group_(n / 2) {
    for (std::size_t t = 0; t < 2 * n; ++t) {
      const double angle = M_PI * static_cast<double>(t) / static_cast<double>(n);
      omega_powers_[t] = {std::cos(angle), std::sin(angle)};
    }
    std::size_t g = 1;
    for (std::size_t j = 0; j < n / 2; ++j) {
      rot_group_[j] = g;
      g = (g * 5) % (2 * n);
    }
  }

  // round(scale * m_k) with m_k = (2/N) * sum_j Re(z_j * conj(zeta_j^k)).
  std::vector<i64> encode(std::span<const Complex> values, double scale) const {
    std::vector<double> m(n_, 0.0);
    for (std::size_t j = 0; j < values.size(); ++j) {
      const Complex z = values[j];
      if (z == Complex{0.0, 0.0}) continue;
      const std::size_t sigma = rot_group_[j];
      for (std::size_t k = 0; k < n_; ++k) {
        const Complex& w = omega_powers_[(sigma * k) % (2 * n_)];
        m[k] += z.real() * w.real() + z.imag() * w.imag();
      }
    }
    const double norm = 2.0 / static_cast<double>(n_);
    std::vector<i64> rounded(n_);
    for (std::size_t k = 0; k < n_; ++k) rounded[k] = std::llround(m[k] * norm * scale);
    return rounded;
  }

  std::vector<Complex> decode(std::span<const double> coeffs, double scale) const {
    std::vector<Complex> out(n_ / 2);
    for (std::size_t j = 0; j < n_ / 2; ++j) {
      const std::size_t sigma = rot_group_[j];
      Complex acc{0.0, 0.0};
      for (std::size_t k = 0; k < n_; ++k) acc += coeffs[k] * omega_powers_[(sigma * k) % (2 * n_)];
      out[j] = acc / scale;
    }
    return out;
  }

 private:
  std::size_t n_;
  std::vector<Complex> omega_powers_;  // omega^t, t in [0, 2N)
  std::vector<std::size_t> rot_group_;  // 5^j mod 2N, j in [0, N/2)
};

TEST(CkksEncoder, FftMatchesReferenceEmbedding) {
  for (std::size_t n : {16u, 1024u, 8192u}) {
    const auto ctx = std::make_shared<CkksContext>(CkksParams::toy(n, 2, 1));
    const CkksEncoder encoder(ctx);
    const ReferenceEmbedding ref(n);
    const std::size_t slots = n / 2;
    const double scale = ctx->params().scale();

    std::vector<Complex> real_only = random_message(slots, n + 2);
    for (Complex& v : real_only) v = v.real();
    std::vector<Complex> single(slots);
    single[slots / 3] = {0.75, -0.5};
    const std::vector<std::pair<const char*, std::vector<Complex>>> cases = {
        {"full", random_message(slots, n)},
        {"partial", random_message(slots / 2 + 1, n + 1)},
        {"real", real_only},
        {"single", single}};

    for (const auto& [name, z] : cases) {
      SCOPED_TRACE(testing::Message() << "N=" << n << " case=" << name);
      const Plaintext pt = encoder.encode(std::span<const Complex>(z), 2, scale);
      RnsPoly coeff = pt.poly;
      coeff.to_coeff();
      const std::vector<double> got = to_centered_doubles(coeff);
      const std::vector<i64> want = ref.encode(std::span<const Complex>(z), scale);
      std::size_t differing = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const double diff = got[k] - static_cast<double>(want[k]);
        EXPECT_LE(std::abs(diff), 1.0) << "k=" << k;
        if (diff != 0) ++differing;
      }
      std::cout << "[ info     ] N=" << n << " " << name << ": " << differing << " of " << n
                << " rounded coefficients differ from the reference\n";

      EXPECT_LT(max_error(encoder.decode_centered(got, scale), ref.decode(got, scale)), 1e-9);

      std::vector<Complex> padded = z;
      padded.resize(slots);
      const std::vector<double> want_coeffs(want.begin(), want.end());
      const double ref_round_trip = max_error(padded, ref.decode(want_coeffs, scale));
      EXPECT_LE(max_error(padded, encoder.decode(pt)), ref_round_trip + 1e-12);
    }
  }
}

TEST(Ckks, EncryptDecryptRoundTrip) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const auto z = random_message(f.encoder->slots(), 2);
  const Plaintext pt = f.encoder->encode(std::span<const Complex>(z), 3,
                                         f.ctx->params().scale());
  const Ciphertext ct = f.encryptor->encrypt(pt);
  const auto decrypted = f.decryptor->decrypt(ct, *f.encoder);
  EXPECT_LT(max_error(z, decrypted), 1e-5);
}

TEST(Ckks, HomomorphicAddSub) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const auto za = random_message(f.encoder->slots(), 3);
  const auto zb = random_message(f.encoder->slots(), 4);
  const double scale = f.ctx->params().scale();
  const Ciphertext ca = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(za), 3, scale));
  const Ciphertext cb = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(zb), 3, scale));

  std::vector<Complex> sum(za.size()), diff(za.size());
  for (std::size_t i = 0; i < za.size(); ++i) {
    sum[i] = za[i] + zb[i];
    diff[i] = za[i] - zb[i];
  }
  EXPECT_LT(max_error(sum, f.decryptor->decrypt(f.evaluator->add(ca, cb), *f.encoder)), 1e-5);
  EXPECT_LT(max_error(diff, f.decryptor->decrypt(f.evaluator->sub(ca, cb), *f.encoder)), 1e-5);

  std::vector<Complex> neg(za.size());
  for (std::size_t i = 0; i < za.size(); ++i) neg[i] = -za[i];
  EXPECT_LT(max_error(neg, f.decryptor->decrypt(f.evaluator->negate(ca), *f.encoder)), 1e-5);
}

TEST(Ckks, AddPlainAndMulPlainWithRescale) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const double scale = f.ctx->params().scale();
  const auto z = random_message(f.encoder->slots(), 5);
  const auto w = random_message(f.encoder->slots(), 6);
  const Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 3, scale));
  const Plaintext pw = f.encoder->encode(std::span<const Complex>(w), 3, scale);

  std::vector<Complex> sum(z.size()), prod(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    sum[i] = z[i] + w[i];
    prod[i] = z[i] * w[i];
  }
  EXPECT_LT(max_error(sum, f.decryptor->decrypt(f.evaluator->add_plain(ct, pw), *f.encoder)), 1e-5);

  Ciphertext cprod = f.evaluator->mul_plain(ct, pw);
  EXPECT_DOUBLE_EQ(cprod.scale, scale * scale);
  cprod = f.evaluator->rescale(cprod);
  EXPECT_EQ(cprod.level, 2u);
  EXPECT_LT(max_error(prod, f.decryptor->decrypt(cprod, *f.encoder)), 1e-4);
}

TEST(Ckks, CiphertextMultiplyWithRelin) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const double scale = f.ctx->params().scale();
  const RelinKeys rk = f.keygen->make_relin_keys();
  const auto za = random_message(f.encoder->slots(), 7);
  const auto zb = random_message(f.encoder->slots(), 8);
  const Ciphertext ca = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(za), 4, scale));
  const Ciphertext cb = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(zb), 4, scale));

  Ciphertext prod = f.evaluator->multiply(ca, cb, rk);
  prod = f.evaluator->rescale(prod);

  std::vector<Complex> expected(za.size());
  for (std::size_t i = 0; i < za.size(); ++i) expected[i] = za[i] * zb[i];
  EXPECT_LT(max_error(expected, f.decryptor->decrypt(prod, *f.encoder)), 1e-3);
}

TEST(Ckks, MultiplicationDepthChain) {
  // Three successive multiplications down the moduli chain: z^8.
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const double scale = f.ctx->params().scale();
  const RelinKeys rk = f.keygen->make_relin_keys();
  const auto z = random_message(f.encoder->slots(), 9, /*mag=*/0.9);
  Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 4, scale));

  std::vector<Complex> expected = z;
  for (int depth = 0; depth < 3; ++depth) {
    ct = f.evaluator->rescale(f.evaluator->multiply(ct, ct, rk));
    for (Complex& v : expected) v *= v;
  }
  EXPECT_EQ(ct.level, 1u);
  EXPECT_LT(max_error(expected, f.decryptor->decrypt(ct, *f.encoder)), 5e-2);
}

TEST(Ckks, RotationMatchesCyclicShift) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const double scale = f.ctx->params().scale();
  const GaloisKeys gk = f.keygen->make_galois_keys({1, 3, -1});
  const auto z = random_message(f.encoder->slots(), 10);
  const Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 3, scale));

  for (int steps : {1, 3, -1}) {
    const Ciphertext rotated = f.evaluator->rotate(ct, steps, gk);
    const auto decrypted = f.decryptor->decrypt(rotated, *f.encoder);
    const std::size_t num_slots = f.encoder->slots();
    for (std::size_t i = 0; i < num_slots; ++i) {
      const std::size_t src = (i + static_cast<std::size_t>(
                                       (steps % static_cast<int>(num_slots) +
                                        static_cast<int>(num_slots))) ) % num_slots;
      EXPECT_LT(std::abs(decrypted[i] - z[src]), 1e-3)
          << "steps=" << steps << " slot=" << i;
    }
  }
}

TEST(Ckks, RotateByZeroIsIdentity) {
  CkksFixture f(CkksParams::toy(1024, 2, 1));
  const auto z = random_message(f.encoder->slots(), 11);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 2, f.ctx->params().scale()));
  GaloisKeys gk;  // rotation by 0 needs no key
  const Ciphertext same = f.evaluator->rotate(ct, 0, gk);
  EXPECT_LT(max_error(f.decryptor->decrypt(ct, *f.encoder),
                      f.decryptor->decrypt(same, *f.encoder)),
            1e-9);
}

TEST(Ckks, ConjugateConjugatesSlots) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const GaloisKeys gk = f.keygen->make_galois_keys({}, /*include_conjugate=*/true);
  const auto z = random_message(f.encoder->slots(), 12);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 3, f.ctx->params().scale()));
  const auto decrypted = f.decryptor->decrypt(f.evaluator->conjugate(ct, gk), *f.encoder);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_LT(std::abs(decrypted[i] - std::conj(z[i])), 1e-3);
  }
}

TEST(Ckks, ModDropPreservesMessage) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const auto z = random_message(f.encoder->slots(), 13);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 4, f.ctx->params().scale()));
  const Ciphertext dropped = f.evaluator->mod_drop(ct, 2);
  EXPECT_EQ(dropped.level, 2u);
  EXPECT_LT(max_error(z, f.decryptor->decrypt(dropped, *f.encoder)), 1e-4);
  EXPECT_THROW(f.evaluator->mod_drop(ct, 0), std::invalid_argument);
  EXPECT_THROW(f.evaluator->mod_drop(dropped, 3), std::invalid_argument);
}

TEST(Ckks, MismatchChecksThrow) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const double scale = f.ctx->params().scale();
  const auto z = random_message(f.encoder->slots(), 14);
  const Ciphertext a = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 4, scale));
  const Ciphertext b = f.evaluator->mod_drop(a, 3);
  EXPECT_THROW(f.evaluator->add(a, b), std::invalid_argument);
  Ciphertext scaled = a;
  scaled.scale *= 2;
  EXPECT_THROW(f.evaluator->add(a, scaled), std::invalid_argument);
  EXPECT_THROW(f.evaluator->rescale(f.evaluator->mod_drop(a, 1)), std::invalid_argument);
  GaloisKeys empty;
  EXPECT_THROW(f.evaluator->rotate(a, 2, empty), std::invalid_argument);
  EXPECT_THROW(f.evaluator->conjugate(a, empty), std::invalid_argument);
}

TEST(Ckks, DnumVariantsAllWork) {
  // The paper sweeps dnum (Fig. 1); every decomposition must stay correct.
  for (std::size_t dnum : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    CkksFixture f(CkksParams::toy(1024, 4, dnum));
    const double scale = f.ctx->params().scale();
    const RelinKeys rk = f.keygen->make_relin_keys();
    const auto z = random_message(f.encoder->slots(), 15 + dnum, 0.9);
    const Ciphertext ct = f.encryptor->encrypt(
        f.encoder->encode(std::span<const Complex>(z), 4, scale));
    Ciphertext sq = f.evaluator->rescale(f.evaluator->multiply(ct, ct, rk));
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expected[i] = z[i] * z[i];
    EXPECT_LT(max_error(expected, f.decryptor->decrypt(sq, *f.encoder)), 1e-2)
        << "dnum=" << dnum;
  }
}

TEST(Ckks, KeyswitchAtLowerLevelAfterRescale) {
  // Rotation after two rescales exercises the truncated-digit path.
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const double scale = f.ctx->params().scale();
  const RelinKeys rk = f.keygen->make_relin_keys();
  const GaloisKeys gk = f.keygen->make_galois_keys({2});
  const auto z = random_message(f.encoder->slots(), 20, 0.9);
  Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 4, scale));
  ct = f.evaluator->rescale(f.evaluator->multiply(ct, ct, rk));
  ct = f.evaluator->rescale(f.evaluator->multiply(ct, ct, rk));
  ASSERT_EQ(ct.level, 2u);
  const Ciphertext rotated = f.evaluator->rotate(ct, 2, gk);
  const auto decrypted = f.decryptor->decrypt(rotated, *f.encoder);
  const std::size_t num_slots = f.encoder->slots();
  for (std::size_t i = 0; i < num_slots; ++i) {
    const Complex expected = std::pow(z[(i + 2) % num_slots], 4);
    EXPECT_LT(std::abs(decrypted[i] - expected), 5e-2) << i;
  }
}

}  // namespace
}  // namespace alchemist::ckks
