#include "fault/injector.h"

#include <stdexcept>

#include "common/serdes.h"

namespace alchemist::fault {

Injector::Injector(u64 seed, double rate) : rng_(seed), rate_(rate) {
  if (!(rate >= 0.0) || !(rate <= 1.0)) {
    throw std::invalid_argument("Injector: rate must be in [0, 1]");
  }
}

std::pair<std::size_t, std::size_t> Injector::corrupt(RnsPoly& poly) {
  if (poly.num_channels() == 0 || poly.degree() == 0) {
    throw std::invalid_argument("Injector: cannot corrupt an empty polynomial");
  }
  const std::size_t channel = rng_.uniform(poly.num_channels());
  const std::size_t index = rng_.uniform(poly.degree());
  const u64 q = poly.moduli()[channel];
  auto ch = poly.channel(channel);
  const u64 old = ch[index];
  u64 fresh = rng_.uniform(q);
  if (fresh == old) fresh = (fresh + 1) % q;  // guarantee a visible fault
  ch[index] = fresh;
  ++injected_;
  return {channel, index};
}

bool Injector::maybe_corrupt(RnsPoly& poly) {
  if (rng_.uniform_real() >= rate_) return false;
  corrupt(poly);
  return true;
}

std::uint64_t poly_checksum(const RnsPoly& poly) {
  // FNV-1a over the structural fields and every residue, in order, each as
  // a little-endian u64.
  BinaryWriter w;
  w.write_u64(poly.degree());
  w.write_u64(poly.is_ntt() ? 1 : 0);
  for (u64 q : poly.moduli()) w.write_u64(q);
  for (std::size_t c = 0; c < poly.num_channels(); ++c) {
    for (u64 v : poly.channel(c)) w.write_u64(v);
  }
  return fnv1a(w.buffer());
}

}  // namespace alchemist::fault
