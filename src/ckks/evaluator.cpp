#include "ckks/evaluator.h"

#include <cmath>
#include <stdexcept>

#include "common/thread_pool.h"

namespace alchemist::ckks {

namespace {

bool scales_close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

// ModDown (Eq. 3) of an NTT-form pair by its last k primes, back in NTT form.
std::pair<RnsPoly, RnsPoly> moddown_pair(RnsPoly a, RnsPoly b, std::size_t k) {
  a.to_coeff();
  b.to_coeff();
  RnsPoly down_a = moddown(a, k);
  RnsPoly down_b = moddown(b, k);
  down_a.to_ntt();
  down_b.to_ntt();
  return {std::move(down_a), std::move(down_b)};
}

}  // namespace

Evaluator::Evaluator(ContextPtr ctx) : ctx_(std::move(ctx)) {}

void Evaluator::check_compatible(const Ciphertext& a, const Ciphertext& b,
                                 const char* op) const {
  if (a.level != b.level) {
    throw std::invalid_argument(std::string("Evaluator::") + op + ": level mismatch");
  }
  if (!scales_close(a.scale, b.scale)) {
    throw std::invalid_argument(std::string("Evaluator::") + op + ": scale mismatch");
  }
}

Ciphertext Evaluator::add(const Ciphertext& a, const Ciphertext& b) const {
  check_compatible(a, b, "add");
  Ciphertext out = a;
  out.c0 += b.c0;
  out.c1 += b.c1;
  return out;
}

Ciphertext Evaluator::sub(const Ciphertext& a, const Ciphertext& b) const {
  check_compatible(a, b, "sub");
  Ciphertext out = a;
  out.c0 -= b.c0;
  out.c1 -= b.c1;
  return out;
}

Ciphertext Evaluator::negate(const Ciphertext& a) const {
  Ciphertext out = a;
  out.c0.negate();
  out.c1.negate();
  return out;
}

Ciphertext Evaluator::add_plain(const Ciphertext& a, const Plaintext& pt) const {
  if (a.level != pt.level || !scales_close(a.scale, pt.scale)) {
    throw std::invalid_argument("Evaluator::add_plain: level/scale mismatch");
  }
  Ciphertext out = a;
  out.c0 += pt.poly;
  return out;
}

Ciphertext Evaluator::mul_plain(const Ciphertext& a, const Plaintext& pt) const {
  if (a.level != pt.level) {
    throw std::invalid_argument("Evaluator::mul_plain: level mismatch");
  }
  Ciphertext out = a;
  out.c0 *= pt.poly;
  out.c1 *= pt.poly;
  out.scale = a.scale * pt.scale;
  return out;
}

std::pair<RnsPoly, RnsPoly> Evaluator::switch_digits(
    std::size_t level, const KSwitchKey& key,
    const std::function<RnsPoly(std::size_t)>& ext_digit) const {
  const std::size_t num_special = ctx_->params().num_special();
  const std::size_t top = ctx_->params().num_levels;
  const std::size_t digits = ctx_->num_digits_at(level);
  if (digits > key.digits.size()) {
    throw std::invalid_argument("Evaluator: keyswitch key has too few digits for the level");
  }
  // dnum-group fan-out: every digit's extension + DecompPolyMult is
  // independent, so compute them into per-digit slots on the pool (nested
  // kernels run inline on the worker) and fold sequentially below — the fixed
  // fold order keeps the accumulation deterministic regardless of scheduling.
  std::vector<std::pair<RnsPoly, RnsPoly>> parts(digits);
  parallel_for(digits, 1, [&](std::size_t jb, std::size_t je) {
    for (std::size_t j = jb; j < je; ++j) {
      const RnsPoly ext = ext_digit(j);
      // DecompPolyMult: digit * evk_j over Q·P. The key lives on the full
      // basis [q_0..q_{L-1}, p...]; select the channels alive at `level`.
      RnsPoly evk_b = key.digits[j].first.extract_channels(0, level);
      evk_b.append_channels(key.digits[j].first.extract_channels(top, num_special));
      RnsPoly evk_a = key.digits[j].second.extract_channels(0, level);
      evk_a.append_channels(key.digits[j].second.extract_channels(top, num_special));
      evk_b *= ext;
      evk_a *= ext;
      parts[j] = {std::move(evk_b), std::move(evk_a)};
    }
  });
  const auto& ext_basis = parts.front().first.moduli();
  RnsPoly acc0(ctx_->degree(), ext_basis, RnsPoly::Form::Ntt);
  RnsPoly acc1(ctx_->degree(), ext_basis, RnsPoly::Form::Ntt);
  for (const auto& [p0, p1] : parts) {
    acc0 += p0;
    acc1 += p1;
  }
  // Moddown: divide by P and return to the Q basis.
  return moddown_pair(std::move(acc0), std::move(acc1), num_special);
}

std::pair<RnsPoly, RnsPoly> Evaluator::keyswitch(const RnsPoly& d, std::size_t level,
                                                 const KSwitchKey& key) const {
  const auto ext_basis = ctx_->extended_basis_at(level);
  RnsPoly d_coeff = d;
  d_coeff.to_coeff();
  KernelTimer timer(Kernel::Keyswitch);
  return switch_digits(level, key, [&](std::size_t j) {
    // Digit j: residues on its own channels, Modup to every other channel.
    const auto [first, count] = ctx_->digit_range(j, level);
    RnsPoly ext = modup(d_coeff.extract_channels(first, count), ext_basis, first);
    ext.to_ntt();
    return ext;
  });
}

Ciphertext Evaluator::multiply(const Ciphertext& a, const Ciphertext& b,
                               const RelinKeys& rk) const {
  if (a.level != b.level) {
    throw std::invalid_argument("Evaluator::multiply: level mismatch");
  }
  // Tensor product: (d0, d1, d2) = (c0*c0', c0*c1' + c1*c0', c1*c1').
  RnsPoly d0 = a.c0;
  d0 *= b.c0;
  RnsPoly d1 = a.c0;
  d1 *= b.c1;
  RnsPoly d1b = a.c1;
  d1b *= b.c0;
  d1 += d1b;
  RnsPoly d2 = a.c1;
  d2 *= b.c1;

  auto [ks0, ks1] = keyswitch(d2, a.level, rk.key);
  d0 += ks0;
  d1 += ks1;
  return Ciphertext{std::move(d0), std::move(d1), a.level, a.scale * b.scale};
}

Ciphertext Evaluator::rescale(const Ciphertext& a) const {
  if (a.level < 2) {
    throw std::invalid_argument("Evaluator::rescale: no prime left to drop");
  }
  const u64 dropped = ctx_->q_moduli()[a.level - 1];

  // Exact RNS rescale is a Moddown with the last ciphertext prime playing the
  // special modulus (Eq. 3 with P = q_{l-1}).
  auto [r0, r1] = moddown_pair(a.c0, a.c1, 1);
  return Ciphertext{std::move(r0), std::move(r1), a.level - 1,
                    a.scale / static_cast<double>(dropped)};
}

Ciphertext Evaluator::mod_drop(const Ciphertext& a, std::size_t level) const {
  if (level == 0 || level > a.level) {
    throw std::invalid_argument("Evaluator::mod_drop: bad target level");
  }
  Ciphertext out = a;
  out.c0.drop_channels_to(level);
  out.c1.drop_channels_to(level);
  out.level = level;
  return out;
}

Ciphertext Evaluator::add_scalar(const Ciphertext& a, std::complex<double> value,
                                 const CkksEncoder& encoder) const {
  return add_plain(a, encoder.encode_constant(value, a.level, a.scale));
}

Ciphertext Evaluator::mul_scalar(const Ciphertext& a, std::complex<double> value,
                                 const CkksEncoder& encoder,
                                 double scalar_scale) const {
  return mul_plain(a, encoder.encode_constant(value, a.level, scalar_scale));
}

Ciphertext Evaluator::normalize_scale(const Ciphertext& a, double target,
                                      double tolerance) const {
  const double rel = std::abs(a.scale - target) / target;
  if (rel > tolerance) {
    throw std::invalid_argument("Evaluator::normalize_scale: scale " +
                                std::to_string(a.scale) + " too far from target " +
                                std::to_string(target));
  }
  Ciphertext out = a;
  out.scale = target;
  return out;
}

Ciphertext Evaluator::mul_aligned(const Ciphertext& a, const Ciphertext& b,
                                  const RelinKeys& rk) const {
  const std::size_t level = std::min(a.level, b.level);
  Ciphertext aa = a.level == level ? a : mod_drop(a, level);
  Ciphertext bb = b.level == level ? b : mod_drop(b, level);
  // The prime ladder keeps both scales within ~2^-20 of each other; force
  // them equal so the product's bookkeeping stays exact.
  bb = normalize_scale(bb, aa.scale);
  return rescale(multiply(aa, bb, rk));
}

Ciphertext Evaluator::add_aligned(const Ciphertext& a, const Ciphertext& b) const {
  const std::size_t level = std::min(a.level, b.level);
  Ciphertext aa = a.level == level ? a : mod_drop(a, level);
  Ciphertext bb = b.level == level ? b : mod_drop(b, level);
  bb = normalize_scale(bb, aa.scale);
  return add(aa, bb);
}

Ciphertext Evaluator::apply_galois(const Ciphertext& a, u64 galois_elt,
                                   const KSwitchKey& key) const {
  // (c0(X^g), c1(X^g)) decrypts under s(X^g); keyswitch c1 back to s.
  RnsPoly rot_c0 = a.c0.automorphism(galois_elt);
  RnsPoly rot_c1 = a.c1.automorphism(galois_elt);
  auto [ks0, ks1] = keyswitch(rot_c1, a.level, key);
  ks0 += rot_c0;
  return Ciphertext{std::move(ks0), std::move(ks1), a.level, a.scale};
}

std::vector<Ciphertext> Evaluator::rotate_hoisted(const Ciphertext& a,
                                                  std::span<const int> steps,
                                                  const GaloisKeys& gk) const {
  const std::size_t level = a.level;
  const auto ext_basis = ctx_->extended_basis_at(level);
  const std::size_t digits = ctx_->num_digits_at(level);

  // Hoisted part, paid once: decompose c1 and Modup every digit to Q·P.
  // (Automorphisms commute with the RNS decomposition: the digit residues
  // are just coefficient permutations, so rotating the *extended* digits is
  // exactly the decomposition of the rotated c1.)
  RnsPoly c1_coeff = a.c1;
  c1_coeff.to_coeff();
  std::vector<RnsPoly> ext_digits(digits);
  parallel_for(digits, 1, [&](std::size_t jb, std::size_t je) {
    for (std::size_t j = jb; j < je; ++j) {
      const auto [first, count] = ctx_->digit_range(j, level);
      ext_digits[j] = modup(c1_coeff.extract_channels(first, count), ext_basis, first);
    }
  });

  // Per rotation: permute the shared digits, inner-product with that
  // rotation's key, Moddown, and add the rotated c0.
  std::vector<Ciphertext> out;
  out.reserve(steps.size());
  for (int step : steps) {
    const u64 g = ctx_->galois_elt_for_rotation(step);
    if (g == 1) {
      out.push_back(a);
      continue;
    }
    if (!gk.has(g)) {
      throw std::invalid_argument("rotate_hoisted: missing galois key for step");
    }
    auto [ks0, ks1] = switch_digits(level, gk.at(g), [&](std::size_t j) {
      RnsPoly rotated = ext_digits[j].automorphism(g);
      rotated.to_ntt();
      return rotated;
    });
    ks0 += a.c0.automorphism(g);
    out.push_back(Ciphertext{std::move(ks0), std::move(ks1), level, a.scale});
  }
  return out;
}

Ciphertext Evaluator::rotate(const Ciphertext& a, int steps,
                             const GaloisKeys& gk) const {
  const u64 g = ctx_->galois_elt_for_rotation(steps);
  if (g == 1) return a;
  if (!gk.has(g)) {
    throw std::invalid_argument("Evaluator::rotate: missing galois key for step");
  }
  return apply_galois(a, g, gk.at(g));
}

Ciphertext Evaluator::conjugate(const Ciphertext& a, const GaloisKeys& gk) const {
  const u64 g = ctx_->galois_elt_conjugate();
  if (!gk.has(g)) {
    throw std::invalid_argument("Evaluator::conjugate: missing conjugation key");
  }
  return apply_galois(a, g, gk.at(g));
}

}  // namespace alchemist::ckks
