#include "synth/gate_count.h"

#include <algorithm>
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

GateCount minus(const GateCount& a, const GateCount& b) {
  return GateCount{a.num_xor - b.num_xor, a.num_non_xor - b.num_non_xor,
                   a.num_one_row - b.num_one_row};
}

// Positions that `out` windows of k, `stride` apart, cover: the input
// rows (or columns) a conv layer reads.
uint64_t covered(size_t k, size_t stride, size_t out) {
  return stride <= k ? (out - 1) * stride + k : out * k;
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
    const Bus x = input_bus(b, Party::kGarbler, fmt.total_bits + fmt.frac_bits);
    const Bus y = input_bus(b, Party::kGarbler, fmt.total_bits + fmt.frac_bits);
    b.outputs(add(b, x, y));
    costs.add_wide = count_built(std::move(b));
  }
  {
    // One MULT, and two that share x or y: the second MULT adds all but
    // the shared operand's part, which splits the three parts apart.
    const auto macs = [&](size_t xs, size_t ys) {
      Builder b;
      std::vector<Bus> x(xs), y(ys);
      for (Bus& v : x) v = input_fixed(b, Party::kGarbler, fmt);
      for (Bus& v : y) v = input_fixed(b, Party::kEvaluator, fmt);
      for (size_t i = 0; i < std::max(xs, ys); ++i)
        b.outputs(mult_wide(b, x[i % xs], y[i % ys], fmt.frac_bits));
      return count_built(std::move(b));
    };
    const GateCount one = macs(1, 1);
    const GateCount new_y = minus(macs(1, 2), one);  // mult + mult_weight
    const GateCount new_x = minus(macs(2, 1), one);  // mult + mult_prologue
    costs.mult = minus(new_x, minus(one, new_y));
    costs.mult_prologue = minus(one, new_y);
    costs.mult_weight = minus(one, new_x);
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
      uint64_t macs = 0, adds = 0, biases = 0;
      // Input features with a kept weight: each pays the MULT prologue.
      std::vector<uint8_t> read(in, fc->mask.empty() && fc->out > 0);
      for (size_t o = 0; o < fc->out; ++o) {
        uint64_t nnz = 0;
        if (fc->mask.empty()) {
          nnz = in;
        } else {
          for (size_t i = 0; i < in; ++i) {
            const bool kept = fc->mask[o * in + i] != 0;
            nnz += kept ? 1 : 0;
            read[i] |= kept;
          }
        }
        macs += nnz;
        adds += nnz > 0 ? nnz - 1 : 0;
        if (fc->has_bias) biases += 1;
      }
      g += (c.mult + c.mult_weight) * macs;
      g += c.mult_prologue *
           static_cast<uint64_t>(std::count(read.begin(), read.end(), 1));
      g += c.add_wide * adds + c.add * biases;
    } else if (const auto* conv = std::get_if<ConvLayer>(&layer)) {
      const Shape3 os = layer_output_shape(shape, layer);
      const uint64_t per_out = shape.c * conv->k * conv->k;
      const uint64_t outs = os.flat();
      g += c.mult * (outs * per_out);
      g += c.mult_weight * (os.c * per_out);
      g += c.mult_prologue * (shape.c * covered(conv->k, conv->stride, os.h) *
                              covered(conv->k, conv->stride, os.w));
      g += c.add_wide * (outs * (per_out - 1));
      if (conv->has_bias) g += c.add * outs;
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
