#include "synth/gate_count.h"

#include <map>
#include <mutex>

#include "synth/divider.h"
#include "synth/mult.h"

namespace deepsecure::synth {
namespace {

GateCount from_stats(const CircuitStats& s) {
  return GateCount{s.num_xor, s.num_and, s.num_and_known};
}

GateCount count_built(Builder&& b) {
  Circuit c = std::move(b).build();
  return from_stats(c.stats());
}

BlockCosts measure_blocks(FixedFormat fmt) {
  BlockCosts costs;
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, fmt);
    const Bus y = input_fixed(b, Party::kGarbler, fmt);
    b.outputs(add(b, x, y));
    costs.add = count_built(std::move(b));
  }
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, fmt);
    const Bus y = input_fixed(b, Party::kEvaluator, fmt);
    b.outputs(mult_fixed(b, x, y, fmt.frac_bits));
    costs.mult = count_built(std::move(b));
  }
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, fmt);
    const Bus y = input_fixed(b, Party::kEvaluator, fmt);
    b.outputs(div_fixed(b, x, y, fmt.frac_bits));
    costs.div = count_built(std::move(b));
  }
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, fmt);
    b.outputs(relu(b, x));
    costs.relu = count_built(std::move(b));
  }
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, fmt);
    const Bus y = input_fixed(b, Party::kGarbler, fmt);
    b.outputs(max_signed(b, x, y));
    costs.max = count_built(std::move(b));
  }
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, fmt);
    b.outputs(mult_const_fixed(b, x, 0.25, fmt));
    costs.mean4 = count_built(std::move(b));
  }
  for (int k = 0; k < 10; ++k) {
    const auto kind = static_cast<ActKind>(k);
    if (kind == ActKind::kIdentity) {
      costs.act[k] = GateCount{};
      continue;
    }
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, fmt);
    b.outputs(activation(b, x, kind, fmt));
    costs.act[k] = count_built(std::move(b));
  }
  return costs;
}

}  // namespace

GateCount count_circuit(const Circuit& c) { return from_stats(c.stats()); }

const BlockCosts& block_costs(FixedFormat fmt) {
  static std::mutex mu;
  static std::map<std::pair<size_t, size_t>, BlockCosts> cache;
  std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(fmt.total_bits, fmt.frac_bits);
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, measure_blocks(fmt)).first;
  return it->second;
}

std::vector<GateCount> count_model_layers(const ModelSpec& spec) {
  const BlockCosts& c = block_costs(spec.fmt);
  std::vector<GateCount> out;
  Shape3 shape = spec.input;
  for (const auto& layer : spec.layers) {
    GateCount g;
    if (const auto* fc = std::get_if<FcLayer>(&layer)) {
      const size_t in = shape.flat();
      uint64_t macs = 0, adds = 0;
      for (size_t o = 0; o < fc->out; ++o) {
        uint64_t nnz = 0;
        if (fc->mask.empty()) {
          nnz = in;
        } else {
          for (size_t i = 0; i < in; ++i) nnz += fc->mask[o * in + i] ? 1 : 0;
        }
        macs += nnz;
        adds += nnz > 0 ? nnz - 1 : 0;
        if (fc->has_bias) adds += 1;
      }
      g += c.mult * macs;
      g += c.add * adds;
    } else if (const auto* conv = std::get_if<ConvLayer>(&layer)) {
      const Shape3 os = layer_output_shape(shape, layer);
      const uint64_t per_out = shape.c * conv->k * conv->k;
      const uint64_t outs = os.flat();
      g += c.mult * (outs * per_out);
      g += c.add * (outs * (per_out - 1 + (conv->has_bias ? 1 : 0)));
    } else if (const auto* pool = std::get_if<PoolLayer>(&layer)) {
      const Shape3 os = layer_output_shape(shape, layer);
      const uint64_t window = pool->k * pool->k;
      if (pool->kind == PoolKind::kMax) {
        g += c.max * (os.flat() * (window - 1));
      } else {
        g += c.add * (os.flat() * (window - 1));
        g += c.mean4 * os.flat();
      }
    } else if (const auto* act = std::get_if<ActLayer>(&layer)) {
      g += c.act[static_cast<int>(act->kind)] * shape.flat();
    } else if (std::holds_alternative<ArgmaxLayer>(layer)) {
      // (n-1) CMP+MUX steps plus the index muxes (clog2(n) bits each).
      const uint64_t n = shape.flat();
      if (n > 1) {
        g += c.max * (n - 1);
        const uint64_t idx_bits = std::max<size_t>(1, clog2(n));
        g += GateCount{2 * idx_bits, idx_bits} * (n - 1);
      }
    }
    out.push_back(g);
    shape = layer_output_shape(shape, layer);
  }
  return out;
}

GateCount count_model(const ModelSpec& spec) {
  GateCount total;
  for (const GateCount& g : count_model_layers(spec)) total += g;
  return total;
}

}  // namespace deepsecure::synth
