#include "synth/served.h"

#include <stdexcept>

#include "synth/int_blocks.h"

namespace deepsecure::synth {

FrontPlan front_plan(const Shape3& in, const LayerSpec& layer,
                     FixedFormat fmt) {
  FrontPlan plan;
  plan.fmt = fmt;
  plan.inputs = in.flat();
  plan.weights = layer_weight_count(in, layer);
  plan.first.push_back(0);
  auto add = [&](size_t input, size_t weight) {
    plan.products.push_back({static_cast<uint32_t>(input),
                             static_cast<uint32_t>(weight)});
  };
  if (const auto* fc = std::get_if<FcLayer>(&layer)) {
    if (!fc->mask.empty() && fc->mask.size() != plan.inputs * fc->out)
      throw std::invalid_argument("FC mask size mismatch");
    size_t w = 0;
    for (size_t o = 0; o < fc->out; ++o) {
      for (size_t i = 0; i < plan.inputs; ++i)
        if (fc->mask.empty() || fc->mask[o * plan.inputs + i]) add(i, w++);
      plan.first.push_back(static_cast<uint32_t>(plan.products.size()));
    }
    for (size_t o = 0; o < fc->out; ++o)
      plan.bias.push_back(fc->has_bias ? static_cast<uint32_t>(w + o)
                                       : FrontPlan::kNoBias);
  } else if (const auto* conv = std::get_if<ConvLayer>(&layer)) {
    const Shape3 out = layer_output_shape(in, layer);
    const size_t k = conv->k;
    const size_t kernel = conv->out_ch * in.c * k * k;
    for (size_t oc = 0; oc < conv->out_ch; ++oc)
      for (size_t oy = 0; oy < out.h; ++oy)
        for (size_t ox = 0; ox < out.w; ++ox) {
          for (size_t ic = 0; ic < in.c; ++ic)
            for (size_t ky = 0; ky < k; ++ky)
              for (size_t kx = 0; kx < k; ++kx)
                add((ic * in.h + oy * conv->stride + ky) * in.w +
                        ox * conv->stride + kx,
                    ((oc * in.c + ic) * k + ky) * k + kx);
          plan.first.push_back(static_cast<uint32_t>(plan.products.size()));
          plan.bias.push_back(conv->has_bias
                                  ? static_cast<uint32_t>(kernel + oc)
                                  : FrontPlan::kNoBias);
        }
  } else {
    throw std::invalid_argument("front_plan: layer must be FC or conv");
  }
  // The per-input index, by counting sort over the products.
  plan.use_first.assign(plan.inputs + 1, 0);
  for (const FrontProduct& p : plan.products) ++plan.use_first[p.input + 1];
  for (size_t i = 0; i < plan.inputs; ++i)
    plan.use_first[i + 1] += plan.use_first[i];
  plan.uses.resize(plan.products.size());
  std::vector<uint32_t> next(plan.use_first.begin(), plan.use_first.end() - 1);
  for (size_t p = 0; p < plan.products.size(); ++p)
    plan.uses[next[plan.products[p].input]++] = static_cast<uint32_t>(p);
  return plan;
}

Circuit share_circuit(const FrontPlan& plan, const std::string& name) {
  const size_t n = plan.fmt.total_bits;
  const size_t f = plan.fmt.frac_bits;
  if (n + f > 32)
    throw std::invalid_argument("share_circuit: products exceed 32 bits");
  Builder b(name);
  std::vector<Bus> c(plan.neurons()), s(plan.neurons());
  for (Bus& bus : c) bus = input_bus(b, Party::kGarbler, n + f);
  for (Bus& bus : s) bus = input_bus(b, Party::kEvaluator, n + f);
  for (size_t j = 0; j < plan.neurons(); ++j) {
    // One lane per neuron, as in the reference layer.
    b.set_lane(static_cast<uint32_t>(j));
    b.outputs(slice(add(b, c[j], s[j]), f, n));
  }
  return b.build();
}

ServedModel compile_served(const ModelSpec& spec) {
  if (spec.layers.empty())
    throw std::invalid_argument("compile_served: empty model");
  // The plans first, then the chains: the plans' small long-lived
  // vectors then sit below the compiler's large transient ones on the
  // heap. Interleaved, they left b3_pp's set-up peak RSS ~10 MB higher
  // (two clients and a server compiling at once).
  ServedModel m;
  std::vector<size_t> at;  // each stage's linear layer
  Shape3 shape = spec.input;
  for (size_t i = 0; i < spec.layers.size(); ++i) {
    const LayerSpec& layer = spec.layers[i];
    if (std::holds_alternative<FcLayer>(layer) ||
        std::holds_alternative<ConvLayer>(layer)) {
      m.stages.push_back({front_plan(shape, layer, spec.fmt), {}});
      at.push_back(i);
    } else if (m.stages.empty()) {
      throw std::invalid_argument(
          "compile_served: layer 0 must be FC or conv");
    }
    shape = layer_output_shape(shape, layer);
  }
  at.push_back(spec.layers.size());
  for (size_t s = 0; s < m.stages.size(); ++s) {
    ServedStage& stage = m.stages[s];
    stage.chain.push_back(share_circuit(
        stage.front,
        spec.name + ".layer" + std::to_string(at[s]) + ".front"));
    for (size_t i = at[s] + 1; i < at[s + 1]; ++i)
      stage.chain.push_back(compile_layer(spec, i));
  }
  return m;
}

}  // namespace deepsecure::synth
