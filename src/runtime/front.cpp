#include "runtime/front.h"

#include <stdexcept>

#include "circuit/schedule.h"
#include "obs/trace.h"

namespace deepsecure::runtime {
namespace {

// Per neuron, the sum of its products' n OT values each, mod 2^32.
std::vector<uint32_t> neuron_sums(const synth::FrontPlan& plan,
                                  const std::vector<uint32_t>& values) {
  const size_t n = plan.fmt.total_bits;
  if (values.size() != plan.ots())
    throw std::invalid_argument("front: OT value count mismatch");
  std::vector<uint32_t> sums(plan.neurons(), 0);
  for (size_t j = 0; j < sums.size(); ++j)
    for (size_t i = plan.first[j] * n; i < plan.first[j + 1] * n; ++i)
      sums[j] += values[i];
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

// B2A coefficient of bit k of an n-bit two's-complement word, mod 2^32.
uint32_t coef(size_t k, size_t n) {
  return k + 1 < n ? uint32_t{1} << k : 0u - (uint32_t{1} << k);
}

// Per n-bit word of share bits `bits`: sum_k coef_k*bits_k + sum_k
// ot(i) over the word's bit indices i.
template <typename OtValue>
std::vector<uint32_t> b2a_words(const BitVec& bits, FixedFormat fmt,
                                OtValue ot) {
  const size_t n = fmt.total_bits;
  if (bits.size() % n != 0)
    throw std::invalid_argument("b2a: share bits are not whole words");
  std::vector<uint32_t> x(bits.size() / n, 0);
  for (size_t i = 0; i < bits.size(); ++i)
    x[i / n] += (bits[i] ? coef(i % n, n) : 0u) + ot(i);
  return x;
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

std::vector<uint32_t> data_shares(const synth::FrontPlan& plan,
                                  const BitVec& data_bits) {
  if (data_bits.size() != plan.inputs * plan.fmt.total_bits)
    throw std::invalid_argument("front: data bit count mismatch");
  const std::vector<int64_t> x =
      decode_fixed(data_bits, plan.inputs, plan.fmt);
  return std::vector<uint32_t>(x.begin(), x.end());
}

std::vector<uint32_t> front_correlations(const synth::FrontPlan& plan,
                                         const std::vector<uint32_t>& x) {
  const size_t n = plan.fmt.total_bits;
  if (x.size() != plan.inputs)
    throw std::invalid_argument("front: input share count mismatch");
  std::vector<uint32_t> d(plan.ots());
  for (size_t p = 0; p < plan.products.size(); ++p) {
    const uint32_t xv = x[plan.products[p].input];
    uint32_t* dp = d.data() + p * n;
    for (size_t k = 0; k + 1 < n; ++k) dp[k] = xv << k;
    dp[n - 1] = (0u - xv) << (n - 1);
  }
  return d;
}

BitVec front_choices(const synth::FrontPlan& plan,
                     const std::vector<int64_t>& w) {
  const size_t n = plan.fmt.total_bits;
  if (w.size() != plan.weights)
    throw std::invalid_argument("front: weight count mismatch");
  BitVec bits(plan.ots());
  for (size_t p = 0; p < plan.products.size(); ++p) {
    const auto wv = static_cast<uint64_t>(w[plan.products[p].weight]);
    for (size_t k = 0; k < n; ++k) bits[p * n + k] = (wv >> k) & 1u;
  }
  return bits;
}

BitVec client_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& pads) {
  std::vector<uint32_t> c = neuron_sums(plan, pads);
  for (uint32_t& v : c) v = 0u - v;
  return share_bits(plan, c);
}

BitVec server_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& received,
                         const std::vector<int64_t>& w,
                         const std::vector<uint32_t>& x) {
  if (x.size() != plan.inputs)
    throw std::invalid_argument("front: input share count mismatch");
  std::vector<uint32_t> s = neuron_sums(plan, received);
  for (size_t j = 0; j < s.size(); ++j) {
    for (size_t p = plan.first[j]; p < plan.first[j + 1]; ++p) {
      const synth::FrontProduct& pr = plan.products[p];
      s[j] += x[pr.input] * static_cast<uint32_t>(w[pr.weight]);
    }
    if (plan.bias[j] != synth::FrontPlan::kNoBias)
      s[j] += static_cast<uint32_t>(w[plan.bias[j]]) << plan.fmt.frac_bits;
  }
  return share_bits(plan, s);
}

std::vector<uint32_t> b2a_correlations(const BitVec& g, FixedFormat fmt) {
  const size_t n = fmt.total_bits;
  if (g.size() % n != 0)
    throw std::invalid_argument("b2a: share bits are not whole words");
  std::vector<uint32_t> d(g.size());
  for (size_t i = 0; i < g.size(); ++i)
    d[i] = g[i] ? 0u - 2u * coef(i % n, n) : 0u;
  return d;
}

std::vector<uint32_t> b2a_client(const BitVec& g,
                                 const std::vector<uint32_t>& pads,
                                 FixedFormat fmt) {
  if (pads.size() != g.size())
    throw std::invalid_argument("b2a: OT value count mismatch");
  return b2a_words(g, fmt, [&](size_t i) { return 0u - pads[i]; });
}

std::vector<uint32_t> b2a_server(const BitVec& e,
                                 const std::vector<uint32_t>& received,
                                 FixedFormat fmt) {
  if (received.size() != e.size())
    throw std::invalid_argument("b2a: OT value count mismatch");
  return b2a_words(e, fmt, [&](size_t i) { return received[i]; });
}

std::vector<uint32_t> b2a_send(GarblerSession& session, const BitVec& g,
                               FixedFormat fmt) {
  return b2a_client(g, session.send_arith(b2a_correlations(g, fmt)), fmt);
}

std::vector<uint32_t> b2a_recv(EvaluatorSession& session, const BitVec& e,
                               FixedFormat fmt) {
  return b2a_server(e, session.recv_arith(e), fmt);
}

BitVec front_send(GarblerSession& session, const synth::FrontPlan& plan,
                  const std::vector<uint32_t>& x) {
  return client_share_bits(
      plan, session.send_arith(front_correlations(plan, x)));
}

BitVec front_recv(EvaluatorSession& session, const synth::FrontPlan& plan,
                  const std::vector<int64_t>& w,
                  const std::vector<uint32_t>& x) {
  return server_share_bits(plan, session.recv_arith(front_choices(plan, w)),
                           w, x);
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
                     const std::vector<uint32_t>& x) {
  Labels out;
  for (size_t s = 0; s < stages.size(); ++s) {
    const synth::FrontPlan& plan = stages[s].front;
    const BitVec share = front_send(
        session, plan,
        s == 0 ? x : b2a_send(session, output_shares(out), plan.fmt));
    out = session.run_stage(stages[s].chain, share);
  }
  return out;
}

Labels evaluate_stages(EvaluatorSession& session,
                       const std::vector<synth::ServedStage>& stages,
                       const std::vector<std::vector<int64_t>>& weights,
                       const std::vector<uint32_t>& x) {
  Labels out;
  for (size_t s = 0; s < stages.size(); ++s) {
    const synth::FrontPlan& plan = stages[s].front;
    obs::Span span("server.front");
    const BitVec share = front_recv(
        session, plan, weights[s],
        s == 0 ? x : b2a_recv(session, output_shares(out), plan.fmt));
    span.end();
    out = session.run_stage(stages[s].chain, share);
  }
  return out;
}

}  // namespace deepsecure::runtime
