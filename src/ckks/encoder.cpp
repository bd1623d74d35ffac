#include "ckks/encoder.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/biguint.h"

namespace alchemist::ckks {

namespace {

// In place a[i] <- sum_k a[k] w^(ik) with w = exp(2*pi*i/N) = twist[2]:
// iterative radix-2 Cooley-Tukey over a bit-reversed input.
void fft(std::vector<std::complex<double>>& a,
         const std::vector<std::complex<double>>& twist) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = 2 * n / len;  // twist[k*stride] = w^(k*N/len)
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + half] * twist[k * stride];
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
  }
}

}  // namespace

CkksEncoder::CkksEncoder(ContextPtr ctx) : ctx_(std::move(ctx)) {
  const std::size_t n = ctx_->degree();
  twist_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    twist_[k] = std::polar(1.0, M_PI * static_cast<double>(k) / static_cast<double>(n));
  }
  slot_index_.resize(n / 2);
  std::size_t g = 1;
  for (std::size_t j = 0; j < n / 2; ++j) {
    slot_index_[j] = (g - 1) / 2;
    g = (g * 5) % (2 * n);
  }
}

Plaintext CkksEncoder::encode(std::span<const std::complex<double>> values,
                              std::size_t level, double scale) const {
  const std::size_t n = ctx_->degree();
  if (values.size() > n / 2) {
    throw std::invalid_argument("CkksEncoder::encode: too many values");
  }
  if (!(scale > 0)) throw std::invalid_argument("CkksEncoder::encode: scale must be positive");

  // m_k = (2/N) sum_j Re(conj(z_j) zeta_j^k) = Re(zeta^k A_k) / N, where A is
  // the FFT of conj(z_j) at idx[j] and z_j at the conjugate point N-1-idx[j].
  std::vector<std::complex<double>> a(n);
  for (std::size_t j = 0; j < values.size(); ++j) {
    a[slot_index_[j]] = std::conj(values[j]);
    a[n - 1 - slot_index_[j]] = values[j];
  }
  fft(a, twist_);
  const double norm = scale / static_cast<double>(n);

  RnsPoly poly(n, ctx_->basis_at(level));
  const auto& moduli = poly.moduli();
  for (std::size_t k = 0; k < n; ++k) {
    const double m = a[k].real() * twist_[k].real() - a[k].imag() * twist_[k].imag();
    const double scaled = m * norm;
    // Also rejects NaN and infinity, which would make llround unspecified.
    if (!(std::abs(scaled) < 0x1.0p62)) {
      throw std::invalid_argument(
          "CkksEncoder::encode: scaled coefficient is not finite or exceeds 2^62");
    }
    const i64 rounded = std::llround(scaled);
    for (std::size_t c = 0; c < moduli.size(); ++c) {
      const u64 q = moduli[c];
      poly.channel(c)[k] = rounded >= 0 ? static_cast<u64>(rounded) % q
                                        : q - (static_cast<u64>(-rounded) % q);
    }
  }
  poly.to_ntt();
  return Plaintext{std::move(poly), level, scale};
}

Plaintext CkksEncoder::encode(std::span<const double> values, std::size_t level,
                              double scale) const {
  std::vector<std::complex<double>> complex_values(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) complex_values[i] = values[i];
  return encode(std::span<const std::complex<double>>(complex_values), level, scale);
}

Plaintext CkksEncoder::encode_scalar(std::complex<double> value, std::size_t level,
                                     double scale) const {
  std::vector<std::complex<double>> all(slots(), value);
  return encode(std::span<const std::complex<double>>(all), level, scale);
}

Plaintext CkksEncoder::encode_constant(std::complex<double> value, std::size_t level,
                                       double scale) const {
  const std::size_t n = ctx_->degree();
  if (!(scale > 0)) throw std::invalid_argument("encode_constant: scale must be positive");
  // Scaled constants can exceed 64 bits (e.g. a constant added at scale
  // Delta^2 during polynomial evaluation); form them in 128-bit and reduce
  // per channel. long double keeps ~64 mantissa bits, so the rounding error
  // is below 2^-60 relative — far under the CKKS noise floor.
  const long double re = static_cast<long double>(value.real()) * scale;
  const long double im = static_cast<long double>(value.imag()) * scale;
  // Also rejects NaN and infinity, whose conversion to i128 is undefined.
  if (!(std::abs(re) < 0x1.0p120L) || !(std::abs(im) < 0x1.0p120L)) {
    throw std::invalid_argument("encode_constant: scaled value is not finite or exceeds 2^120");
  }
  const i128 re_r = static_cast<i128>(re);
  const i128 im_r = static_cast<i128>(im);

  RnsPoly poly(n, ctx_->basis_at(level));
  const auto& moduli = poly.moduli();
  for (std::size_t c = 0; c < moduli.size(); ++c) {
    const u64 q = moduli[c];
    auto embed = [q](i128 v) {
      return v >= 0 ? static_cast<u64>(static_cast<u128>(v) % q)
                    : q - static_cast<u64>(static_cast<u128>(-v) % q);
    };
    poly.channel(c)[0] = embed(re_r);
    poly.channel(c)[n / 2] = embed(im_r);
  }
  poly.to_ntt();
  return Plaintext{std::move(poly), level, scale};
}

std::vector<std::complex<double>> CkksEncoder::decode_centered(
    std::span<const double> centered_coeffs, double scale) const {
  const std::size_t n = ctx_->degree();
  if (centered_coeffs.size() != n) {
    throw std::invalid_argument("CkksEncoder::decode_centered: size mismatch");
  }
  std::vector<std::complex<double>> a(n);
  for (std::size_t k = 0; k < n; ++k) a[k] = centered_coeffs[k] * twist_[k];
  fft(a, twist_);
  std::vector<std::complex<double>> out(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) out[j] = a[slot_index_[j]] / scale;
  return out;
}

std::vector<std::complex<double>> CkksEncoder::decode(const Plaintext& pt) const {
  RnsPoly coeff = pt.poly;
  coeff.to_coeff();
  const std::vector<double> centered = to_centered_doubles(coeff);
  return decode_centered(centered, pt.scale);
}

std::vector<double> to_centered_doubles(const RnsPoly& coeff_form) {
  if (coeff_form.is_ntt()) {
    throw std::invalid_argument("to_centered_doubles: expected coefficient form");
  }
  const std::size_t n = coeff_form.degree();
  const std::size_t channels = coeff_form.num_channels();
  const BigUInt big_q = BigUInt::product(coeff_form.moduli());
  const BigUInt half_q = big_q.div_u64(2);

  std::vector<double> out(n);
  std::vector<u64> residues(channels);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t c = 0; c < channels; ++c) residues[c] = coeff_form.channel(c)[k];
    BigUInt x = crt_compose(residues, coeff_form.moduli());
    if (x > half_q) {
      out[k] = -(big_q - x).to_double();
    } else {
      out[k] = x.to_double();
    }
  }
  return out;
}

}  // namespace alchemist::ckks
