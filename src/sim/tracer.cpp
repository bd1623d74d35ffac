#include "sim/tracer.h"

namespace alchemist::sim {

using metaop::OpKind;

TracedEvaluator::TracedEvaluator(ckks::ContextPtr ctx,
                                 const ckks::Evaluator& evaluator,
                                 std::size_t arch_n, double hbm_stream_fraction)
    : ctx_(std::move(ctx)),
      evaluator_(evaluator),
      arch_n_(arch_n == 0 ? ctx_->degree() : arch_n),
      hbm_stream_fraction_(hbm_stream_fraction) {}

workloads::CkksWl TracedEvaluator::arch_params(std::size_t level) const {
  workloads::CkksWl w;
  w.n = arch_n_;
  w.level = level;
  w.max_level = ctx_->params().num_levels;
  w.dnum = ctx_->params().dnum;
  w.hbm_stream_fraction = hbm_stream_fraction_;
  return w;
}

std::vector<std::size_t> TracedEvaluator::deps_of(
    std::initializer_list<const TracedCiphertext*> cts) const {
  std::vector<std::size_t> deps;
  for (const TracedCiphertext* c : cts) {
    if (c->node != npos) deps.push_back(c->node);
  }
  return deps;
}

TracedCiphertext TracedEvaluator::add(const TracedCiphertext& a,
                                      const TracedCiphertext& b) {
  const workloads::CkksWl w = arch_params(a.ct.level);
  const std::size_t node =
      builder_.add(OpKind::PointwiseAdd, w.n, 2 * w.level, deps_of({&a, &b}));
  return {evaluator_.add(a.ct, b.ct), node};
}

TracedCiphertext TracedEvaluator::mul_plain(const TracedCiphertext& a,
                                            const ckks::Plaintext& pt) {
  const workloads::CkksWl w = arch_params(a.ct.level);
  const std::size_t node =
      builder_.add(OpKind::PointwiseMult, w.n, 2 * w.level, deps_of({&a}));
  return {evaluator_.mul_plain(a.ct, pt), node};
}

TracedCiphertext TracedEvaluator::multiply_rescale(const TracedCiphertext& a,
                                                   const TracedCiphertext& b,
                                                   const ckks::RelinKeys& rk) {
  const workloads::CkksWl w = arch_params(a.ct.level);
  const std::size_t node =
      workloads::append_cmult_rescale(builder_, w, deps_of({&a, &b}));
  return {evaluator_.rescale(evaluator_.multiply(a.ct, b.ct, rk)), node};
}

TracedCiphertext TracedEvaluator::rescale(const TracedCiphertext& a) {
  const workloads::CkksWl w = arch_params(a.ct.level);
  const std::size_t node = workloads::append_rescale(builder_, w, deps_of({&a}));
  return {evaluator_.rescale(a.ct), node};
}

TracedCiphertext TracedEvaluator::rotate(const TracedCiphertext& a, int steps,
                                         const ckks::GaloisKeys& gk) {
  const workloads::CkksWl w = arch_params(a.ct.level);
  const std::size_t node = workloads::append_rotation(builder_, w, deps_of({&a}));
  return {evaluator_.rotate(a.ct, steps, gk), node};
}

metaop::OpGraph TracedEvaluator::take_graph(std::string name) {
  metaop::OpGraph out = std::move(builder_.g);
  out.name = std::move(name);
  builder_.g = metaop::OpGraph{};
  return out;
}

}  // namespace alchemist::sim
