#include "runtime/front.h"

#include <stdexcept>

#include "circuit/schedule.h"
#include "obs/trace.h"

namespace deepsecure::runtime {
namespace {

// Coefficient of bit k of an n-bit two's-complement word, mod 2^32.
uint32_t coef(size_t k, size_t n) {
  return k + 1 < n ? uint32_t{1} << k : 0u - (uint32_t{1} << k);
}

// Visits the front's OT words in wire order (ot_offsets): per input i,
// per bit k, per product p of i; fn(word, i, k, p).
template <typename Fn>
void for_each_word(const synth::FrontPlan& plan, Fn fn) {
  const size_t n = plan.fmt.total_bits;
  size_t word = 0;
  for (size_t i = 0; i < plan.inputs; ++i)
    for (size_t k = 0; k < n; ++k)
      for (size_t u = plan.use_first[i]; u < plan.use_first[i + 1]; ++u)
        fn(word++, i, k, plan.uses[u]);
}

// Per neuron, the sum of its products' values, mod 2^32.
std::vector<uint32_t> neuron_sums(const synth::FrontPlan& plan,
                                  const std::vector<uint32_t>& product) {
  std::vector<uint32_t> sums(plan.neurons(), 0);
  for (size_t j = 0; j < sums.size(); ++j)
    for (size_t p = plan.first[j]; p < plan.first[j + 1]; ++p)
      sums[j] += product[p];
  return sums;
}

// The share circuit's input bits: n+f bits of each neuron's sum, so the
// sums are taken mod 2^(n+f).
BitVec share_bits(const synth::FrontPlan& plan,
                  const std::vector<uint32_t>& sums) {
  const size_t width = plan.fmt.total_bits + plan.fmt.frac_bits;
  BitVec bits(plan.share_bits());
  for (size_t j = 0; j < sums.size(); ++j)
    for (size_t i = 0; i < width; ++i)
      bits[j * width + i] = (sums[j] >> i) & 1u;
  return bits;
}

void check_words(const synth::FrontPlan& plan,
                 const std::vector<uint32_t>& words) {
  if (words.size() != plan.correlations())
    throw std::invalid_argument("front: OT word count mismatch");
}

void check_weights(const synth::FrontPlan& plan,
                   const std::vector<int64_t>& w) {
  if (w.size() != plan.weights)
    throw std::invalid_argument("front: weight count mismatch");
}

void check_shares(const synth::FrontPlan& plan, const BitVec& bits) {
  if (!bits.empty() && bits.size() != plan.ots())
    throw std::invalid_argument("front: input share bit count mismatch");
}

}  // namespace

std::vector<int64_t> decode_fixed(const BitVec& bits, size_t count,
                                  FixedFormat fmt) {
  const size_t n = fmt.total_bits;
  if (bits.size() < count * n)
    throw std::invalid_argument("front: too few input bits");
  std::vector<int64_t> out(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    for (size_t k = 0; k < n; ++k) v |= uint64_t{bits[i * n + k] & 1u} << k;
    if (n < 64 && ((v >> (n - 1)) & 1u)) v |= ~uint64_t{0} << n;
    out[i] = static_cast<int64_t>(v);
  }
  return out;
}

std::vector<uint32_t> ot_offsets(const synth::FrontPlan& plan) {
  const size_t n = plan.fmt.total_bits;
  std::vector<uint32_t> offset;
  offset.reserve(plan.ots() + 1);
  for (size_t i = 0; i < plan.inputs; ++i) {
    const uint32_t uses = plan.use_first[i + 1] - plan.use_first[i];
    for (size_t k = 0; k < n; ++k)
      offset.push_back(static_cast<uint32_t>(n * plan.use_first[i] + k * uses));
  }
  offset.push_back(static_cast<uint32_t>(plan.correlations()));
  return offset;
}

std::vector<uint32_t> product_correlations(const synth::FrontPlan& plan,
                                           const std::vector<int64_t>& w,
                                           const BitVec& e) {
  check_weights(plan, w);
  check_shares(plan, e);
  const size_t n = plan.fmt.total_bits;
  std::vector<uint32_t> d(plan.correlations());
  for_each_word(plan, [&](size_t word, size_t i, size_t k, size_t p) {
    const uint32_t v =
        coef(k, n) * static_cast<uint32_t>(w[plan.products[p].weight]);
    d[word] = !e.empty() && e[i * n + k] ? 0u - v : v;
  });
  return d;
}

BitVec client_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& received) {
  check_words(plan, received);
  std::vector<uint32_t> product(plan.products.size(), 0);
  for_each_word(plan, [&](size_t word, size_t, size_t, size_t p) {
    product[p] += received[word];
  });
  return share_bits(plan, neuron_sums(plan, product));
}

BitVec server_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& pads,
                         const std::vector<int64_t>& w, const BitVec& e) {
  check_words(plan, pads);
  check_weights(plan, w);
  check_shares(plan, e);
  std::vector<uint32_t> product(plan.products.size(), 0);
  if (!e.empty()) {
    const std::vector<int64_t> x = decode_fixed(e, plan.inputs, plan.fmt);
    for (size_t p = 0; p < product.size(); ++p)
      product[p] = static_cast<uint32_t>(x[plan.products[p].input]) *
                   static_cast<uint32_t>(w[plan.products[p].weight]);
  }
  for_each_word(plan, [&](size_t word, size_t, size_t, size_t p) {
    product[p] -= pads[word];
  });
  std::vector<uint32_t> s = neuron_sums(plan, product);
  for (size_t j = 0; j < s.size(); ++j)
    if (plan.bias[j] != synth::FrontPlan::kNoBias)
      s[j] += static_cast<uint32_t>(w[plan.bias[j]]) << plan.fmt.frac_bits;
  return share_bits(plan, s);
}

uint64_t front_bytes(const synth::FrontPlan& plan) {
  return vector_ot_bytes(plan.ots(), plan.correlations());
}

BitVec front_send(GarblerSession& session, const synth::FrontPlan& plan,
                  const BitVec& g) {
  return client_share_bits(plan, session.recv_vector(g, ot_offsets(plan)));
}

BitVec front_recv(EvaluatorSession& session, const synth::FrontPlan& plan,
                  const std::vector<int64_t>& w, const BitVec& e) {
  return server_share_bits(
      plan,
      session.send_vector(ot_offsets(plan), product_correlations(plan, w, e)),
      w, e);
}

synth::ServedModel walked_served(const synth::ModelSpec& spec) {
  synth::ServedModel served = synth::compile_served(spec);
  for (synth::ServedStage& stage : served.stages)
    stage.chain = walk_chain(std::move(stage.chain));
  return served;
}

std::vector<std::vector<int64_t>> front_weights(
    const synth::ServedModel& served, const BitVec& weight_bits) {
  size_t count = 0;
  for (const synth::ServedStage& stage : served.stages)
    count += stage.front.weights;
  const FixedFormat fmt = served.stages.front().front.fmt;
  if (weight_bits.size() != count * fmt.total_bits)
    throw std::invalid_argument("front: weight bit count mismatch");
  const std::vector<int64_t> w = decode_fixed(weight_bits, count, fmt);
  std::vector<std::vector<int64_t>> out;
  auto next = w.begin();
  for (const synth::ServedStage& stage : served.stages) {
    const auto end = next + static_cast<ptrdiff_t>(stage.front.weights);
    out.emplace_back(next, end);
    next = end;
  }
  return out;
}

Labels garble_stages(GarblerSession& session,
                     const std::vector<synth::ServedStage>& stages,
                     const BitVec& g) {
  Labels out;
  for (size_t s = 0; s < stages.size(); ++s) {
    const BitVec share = front_send(session, stages[s].front,
                                    s == 0 ? g : output_shares(out));
    out = session.run_stage(stages[s].chain, share);
  }
  return out;
}

Labels evaluate_stages(EvaluatorSession& session,
                       const std::vector<synth::ServedStage>& stages,
                       const std::vector<std::vector<int64_t>>& weights,
                       const BitVec& e) {
  Labels out;
  for (size_t s = 0; s < stages.size(); ++s) {
    obs::Span span("server.front");
    const BitVec share = front_recv(session, stages[s].front, weights[s],
                                    s == 0 ? e : output_shares(out));
    span.end();
    out = session.run_stage(stages[s].chain, share);
  }
  return out;
}

}  // namespace deepsecure::runtime
