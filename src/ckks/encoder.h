// CKKS canonical-embedding encoder.
//
// A message vector z in C^(N/2) is mapped to the real polynomial m(X) with
// m(zeta_j) = z_j at the evaluation points zeta_j = zeta^(5^j mod 2N)
// (zeta = exp(i*pi/N), the primitive 2N-th root), then scaled by Delta and
// rounded. The orbit of 5 orders the slots so that the Galois automorphism
// X -> X^(5^r) is exactly a cyclic rotation of the slot vector by r.
//
// Both directions run as one size-N radix-2 complex FFT, O(N log N). Every
// odd power zeta^(2i+1) is zeta * w^i with w = zeta^2 = exp(2*pi*i/N), so
//   m(zeta^(2i+1)) = sum_k (m_k zeta^k) w^(ik),
// a DFT of the twisted coefficients m_k zeta^k. Slot j reads FFT output
// idx[j] = (5^j mod 2N - 1) / 2; its conjugate point -5^j lands at
// N - 1 - idx[j]. Decoding twists, transforms and gathers. Encoding scatters
// conj(z_j) to idx[j] and z_j to N - 1 - idx[j], runs the same transform A
// and untwists: m_k = Re(zeta^k A_k) / N = (2/N) sum_j Re(z_j conj(zeta_j^k)).
//
// Thread safety: the tables are written only by the constructor and every
// call works in its own scratch buffer, so one const CkksEncoder may be
// shared by any number of threads.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "ckks/params.h"
#include "poly/rns.h"

namespace alchemist::ckks {

// Scaled, encoded message over the RNS basis of some level. NTT form.
struct Plaintext {
  RnsPoly poly;       // NTT form over basis_at(level)
  std::size_t level;  // number of active q primes
  double scale;
};

class CkksEncoder {
 public:
  explicit CkksEncoder(ContextPtr ctx);

  std::size_t slots() const { return ctx_->params().slots(); }

  // Values beyond `values.size()` are zero-padded; values.size() must not
  // exceed slots(). Throws std::invalid_argument unless scale > 0 and every
  // scaled coefficient is finite and below 2^62 in magnitude.
  Plaintext encode(std::span<const std::complex<double>> values,
                   std::size_t level, double scale) const;
  Plaintext encode(std::span<const double> values, std::size_t level,
                   double scale) const;
  // Broadcast a single scalar to every slot.
  Plaintext encode_scalar(std::complex<double> value, std::size_t level,
                          double scale) const;

  // Fast path for the same broadcast: a + b*i in every slot equals the
  // two-coefficient polynomial a + b*X^(N/2) (since 5^j ≡ 1 mod 4, the
  // embedding sends X^(N/2) to +i in every slot). O(N) with no FFT, and the
  // scaled value may reach 2^120 instead of encode's 2^62.
  Plaintext encode_constant(std::complex<double> value, std::size_t level,
                            double scale) const;

  // Exact decode: CRT-composes the RNS residues, centers mod Q, divides by
  // the scale and evaluates the embedding.
  std::vector<std::complex<double>> decode(const Plaintext& pt) const;

  // Decode pre-centered coefficients (used by the decryptor).
  std::vector<std::complex<double>> decode_centered(
      std::span<const double> centered_coeffs, double scale) const;

 private:
  ContextPtr ctx_;
  // zeta^k, k in [0, N); its even entries are the FFT roots w^t = twist_[2t].
  std::vector<std::complex<double>> twist_;
  std::vector<std::size_t> slot_index_;  // idx[j] = (5^j mod 2N - 1) / 2
};

// CRT-compose each coefficient of a coefficient-form RnsPoly and center it
// into (-Q/2, Q/2], returned as doubles. Values must be small enough for a
// double (|x| < 2^1000 trivially, precision loss beyond 2^53 is the caller's
// concern — decrypted CKKS coefficients are Delta-scaled messages, far below).
std::vector<double> to_centered_doubles(const RnsPoly& coeff_form);

}  // namespace alchemist::ckks
