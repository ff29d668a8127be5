#include <gtest/gtest.h>

#include "synth/gate_count.h"
#include "synth/layer_circuits.h"
#include "test_util.h"

namespace deepsecure::synth {
namespace {

using test::pack_fixed;
using test::random_fixed;

constexpr FixedFormat kFmt = kDefaultFormat;

// Plaintext fixed-point forward pass mirroring the compiler's layout:
// FC and conv neurons sum full products and truncate once.
std::vector<Fixed> ref_forward(const ModelSpec& spec,
                               const std::vector<Fixed>& data,
                               const std::vector<Fixed>& weights) {
  std::vector<Fixed> x = data;
  Shape3 shape = spec.input;
  size_t wpos = 0;
  auto next_w = [&]() { return weights.at(wpos++); };

  for (const auto& layer : spec.layers) {
    if (const auto* fc = std::get_if<FcLayer>(&layer)) {
      const size_t in = shape.flat();
      std::vector<std::vector<Fixed>> w(fc->out);
      std::vector<std::vector<uint8_t>> mask(fc->out);
      for (size_t o = 0; o < fc->out; ++o) {
        mask[o].assign(in, 1);
        w[o].assign(in, Fixed::from_raw(0, kFmt));
        for (size_t i = 0; i < in; ++i) {
          if (!fc->mask.empty() && !fc->mask[o * in + i]) {
            mask[o][i] = 0;
            continue;
          }
          w[o][i] = next_w();
        }
      }
      std::vector<Fixed> bias(fc->out, Fixed::from_raw(0, kFmt));
      if (fc->has_bias)
        for (size_t o = 0; o < fc->out; ++o) bias[o] = next_w();
      std::vector<Fixed> y(fc->out, Fixed::from_raw(0, kFmt));
      for (size_t o = 0; o < fc->out; ++o) {
        int64_t acc = 0;
        for (size_t i = 0; i < in; ++i)
          if (mask[o][i]) acc += x[i].raw() * w[o][i].raw();
        y[o] = Fixed::from_product_sum(acc, kFmt) + bias[o];
      }
      x = y;
    } else if (const auto* act = std::get_if<ActLayer>(&layer)) {
      for (auto& v : x) {
        if (act->kind == ActKind::kReLU)
          v = v.raw() > 0 ? v : Fixed::from_raw(0, kFmt);
        else
          throw std::logic_error("ref_forward: unsupported act");
      }
    } else if (const auto* pool = std::get_if<PoolLayer>(&layer)) {
      const Shape3 os = layer_output_shape(shape, layer);
      std::vector<Fixed> y(os.flat(), Fixed::from_raw(0, kFmt));
      for (size_t c = 0; c < shape.c; ++c)
        for (size_t oy = 0; oy < os.h; ++oy)
          for (size_t ox = 0; ox < os.w; ++ox) {
            int64_t best = INT64_MIN;
            for (size_t ky = 0; ky < pool->k; ++ky)
              for (size_t kx = 0; kx < pool->k; ++kx) {
                const size_t iy = oy * pool->stride + ky;
                const size_t ix = ox * pool->stride + kx;
                best = std::max(
                    best, x[(c * shape.h + iy) * shape.w + ix].raw());
              }
            y[(c * os.h + oy) * os.w + ox] = Fixed::from_raw(best, kFmt);
          }
      x = y;
    } else if (const auto* conv = std::get_if<ConvLayer>(&layer)) {
      const Shape3 os = layer_output_shape(shape, layer);
      std::vector<Fixed> w(conv->out_ch * shape.c * conv->k * conv->k,
                           Fixed::from_raw(0, kFmt));
      for (auto& v : w) v = next_w();
      std::vector<Fixed> bias(conv->out_ch, Fixed::from_raw(0, kFmt));
      if (conv->has_bias)
        for (auto& v : bias) v = next_w();
      std::vector<Fixed> y(os.flat(), Fixed::from_raw(0, kFmt));
      for (size_t oc = 0; oc < conv->out_ch; ++oc)
        for (size_t oy = 0; oy < os.h; ++oy)
          for (size_t ox = 0; ox < os.w; ++ox) {
            int64_t acc = 0;
            for (size_t ic = 0; ic < shape.c; ++ic)
              for (size_t ky = 0; ky < conv->k; ++ky)
                for (size_t kx = 0; kx < conv->k; ++kx) {
                  const size_t iy = oy * conv->stride + ky;
                  const size_t ix = ox * conv->stride + kx;
                  const Fixed& wv =
                      w[((oc * shape.c + ic) * conv->k + ky) * conv->k + kx];
                  acc += x[(ic * shape.h + iy) * shape.w + ix].raw() * wv.raw();
                }
            y[(oc * os.h + oy) * os.w + ox] =
                Fixed::from_product_sum(acc, kFmt) + bias[oc];
          }
      x = y;
    } else if (std::holds_alternative<ArgmaxLayer>(layer)) {
      size_t best = 0;
      for (size_t i = 1; i < x.size(); ++i)
        if (x[i].raw() > x[best].raw()) best = i;
      return {Fixed::from_raw(static_cast<int64_t>(best), kFmt)};
    }
    shape = layer_output_shape(shape, layer);
  }
  return x;
}

ModelSpec tiny_cnn() {
  ModelSpec spec;
  spec.name = "tiny_cnn";
  spec.input = Shape3{6, 6, 1};
  spec.layers.push_back(ConvLayer{3, 1, 2, true});
  spec.layers.push_back(ActLayer{ActKind::kReLU});
  spec.layers.push_back(PoolLayer{PoolKind::kMax, 2, 2});
  spec.layers.push_back(FcLayer{3, {}, true});
  spec.layers.push_back(ArgmaxLayer{});
  return spec;
}

TEST(LayerCircuits, ShapesAndWeightCounts) {
  const ModelSpec spec = tiny_cnn();
  Shape3 s = spec.input;
  s = layer_output_shape(s, spec.layers[0]);
  EXPECT_EQ(s.h, 4u);
  EXPECT_EQ(s.w, 4u);
  EXPECT_EQ(s.c, 2u);
  s = layer_output_shape(s, spec.layers[2]);
  EXPECT_EQ(s.h, 2u);
  EXPECT_EQ(s.flat(), 8u);
  // conv: 2*1*3*3 + 2 bias = 20; fc: 8*3 + 3 = 27.
  EXPECT_EQ(model_weight_count(spec), 47u);
}

TEST(LayerCircuits, CnnForwardMatchesReference) {
  const ModelSpec spec = tiny_cnn();
  const Circuit c = compile_model(spec);
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Fixed> data, weights;
    for (size_t i = 0; i < spec.input.flat(); ++i)
      data.push_back(random_fixed(rng, kFmt, 0.1));
    for (size_t i = 0; i < model_weight_count(spec); ++i)
      weights.push_back(random_fixed(rng, kFmt, 0.1));
    const BitVec out = c.eval(pack_fixed(data), pack_fixed(weights));
    const auto expect = ref_forward(spec, data, weights);
    EXPECT_EQ(from_bits(out), static_cast<uint64_t>(expect[0].raw()));
  }
}

TEST(LayerCircuits, SparseFcMatchesReference) {
  ModelSpec spec;
  spec.name = "sparse_fc";
  spec.input = Shape3{1, 1, 6};
  FcLayer fc{4, {}, true};
  fc.mask.assign(24, 0);
  Rng mask_rng(7);
  for (auto& m : fc.mask) m = mask_rng.next_bool() ? 1 : 0;
  spec.layers.push_back(fc);
  spec.layers.push_back(ArgmaxLayer{});

  const Circuit c = compile_model(spec);
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Fixed> data, weights;
    for (size_t i = 0; i < 6; ++i) data.push_back(random_fixed(rng, kFmt, 0.2));
    for (size_t i = 0; i < model_weight_count(spec); ++i)
      weights.push_back(random_fixed(rng, kFmt, 0.2));
    const BitVec out = c.eval(pack_fixed(data), pack_fixed(weights));
    const auto expect = ref_forward(spec, data, weights);
    EXPECT_EQ(from_bits(out), static_cast<uint64_t>(expect[0].raw()));
  }
}

// An FC neuron rounds once: with |x|, |w|, |b| small enough that
// nothing wraps, y - b is the exact sum of products floored to an LSB,
// 0 <= sum x*w / 2^f - (y - b) < 1 (in LSBs), however many products
// the neuron has. Truncating every product instead would be off by up
// to one LSB per product.
TEST(LayerCircuits, FcNeuronWithinOneLsbOfExactSum) {
  const size_t in = 8, out = 4;
  ModelSpec spec;
  spec.name = "fc";
  spec.input = Shape3{1, 1, in};
  spec.layers.push_back(FcLayer{out, {}, true});
  const Circuit c = compile_model(spec);
  const int64_t one = int64_t{1} << kFmt.frac_bits;
  Rng rng(19);
  size_t checked = 0, bad = 0, below = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Fixed> x, w;
    // |x*w| <= 0.64 each, so |sum| + |b| < 8 * 0.64 + 0.8 < 8: no wrap.
    for (size_t i = 0; i < in; ++i) x.push_back(random_fixed(rng, kFmt, 0.1));
    for (size_t i = 0; i < in * out + out; ++i)
      w.push_back(random_fixed(rng, kFmt, 0.1));
    const std::vector<Fixed> y =
        test::unpack_fixed(c.eval(pack_fixed(x), pack_fixed(w)), kFmt);
    ASSERT_EQ(y.size(), out);
    for (size_t o = 0; o < out; ++o) {
      int64_t sum = 0;
      for (size_t i = 0; i < in; ++i) sum += x[i].raw() * w[o * in + i].raw();
      // sum / 2^f - (y - b), scaled by 2^f to stay in integers.
      const int64_t err = sum - (y[o].raw() - w[in * out + o].raw()) * one;
      bad += err < 0 || err >= one ? 1 : 0;
      below += err > 0 ? 1 : 0;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 400u);
  EXPECT_EQ(bad, 0u);
  EXPECT_GT(below, 0u);  // the sums do carry fractional bits
}

TEST(LayerCircuits, LayeredCompileMatchesMonolithic) {
  ModelSpec spec;
  spec.name = "mlp";
  spec.input = Shape3{1, 1, 5};
  spec.layers.push_back(FcLayer{4, {}, true});
  spec.layers.push_back(ActLayer{ActKind::kReLU});
  spec.layers.push_back(FcLayer{3, {}, true});
  spec.layers.push_back(ArgmaxLayer{});

  const Circuit mono = compile_model(spec);
  const auto layers = compile_model_layers(spec);
  ASSERT_EQ(layers.size(), 4u);

  Rng rng(17);
  std::vector<Fixed> data, weights;
  for (size_t i = 0; i < 5; ++i) data.push_back(random_fixed(rng, kFmt, 0.2));
  for (size_t i = 0; i < model_weight_count(spec); ++i)
    weights.push_back(random_fixed(rng, kFmt, 0.2));

  const BitVec mono_out = mono.eval(pack_fixed(data), pack_fixed(weights));

  // Chain the per-layer circuits manually.
  BitVec x = pack_fixed(data);
  const BitVec wbits = pack_fixed(weights);
  size_t wpos = 0;
  for (const Circuit& lc : layers) {
    const size_t nw = lc.evaluator_inputs.size();
    const BitVec wslice(wbits.begin() + static_cast<ptrdiff_t>(wpos),
                        wbits.begin() + static_cast<ptrdiff_t>(wpos + nw));
    wpos += nw;
    x = lc.eval(x, wslice);
  }
  EXPECT_EQ(x, mono_out);
}

TEST(GateCount, RollUpTracksCompiledCircuit) {
  // For an FC-only model the analytic count must match the compiled
  // netlist closely (constant folding differences stay tiny).
  ModelSpec spec;
  spec.input = Shape3{1, 1, 8};
  spec.layers.push_back(FcLayer{6, {}, true});
  spec.layers.push_back(ActLayer{ActKind::kReLU});
  spec.layers.push_back(FcLayer{4, {}, true});

  const GateCount analytic = count_model(spec);
  const GateCount compiled = count_circuit(compile_model(spec));
  const double ratio = static_cast<double>(analytic.num_non_xor) /
                       static_cast<double>(compiled.num_non_xor);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

// Conv layers reuse each input element and each weight across windows;
// the roll-up charges the MULT's x-only and weight-only parts once per
// element read and once per weight, as CSE emits them. The strides
// cover overlapping, touching and gapped windows.
TEST(GateCount, RollUpMatchesCompiledConv) {
  for (const size_t stride : {1u, 2u, 3u}) {
    ModelSpec spec;
    spec.input = Shape3{7, 8, 2};
    spec.layers.push_back(ConvLayer{2, stride, 3, true});
    spec.layers.push_back(ActLayer{ActKind::kReLU});
    spec.layers.push_back(FcLayer{4, {}, true});
    GateCount compiled;
    for (const Circuit& c : compile_model_layers(spec))
      compiled += count_circuit(c);
    const GateCount analytic = count_model(spec);
    EXPECT_EQ(analytic.num_non_xor, compiled.num_non_xor) << stride;
    EXPECT_EQ(analytic.num_xor, compiled.num_xor) << stride;
  }
}

TEST(GateCount, SparsityReducesCounts) {
  ModelSpec dense;
  dense.input = Shape3{1, 1, 100};
  dense.layers.push_back(FcLayer{50, {}, true});

  ModelSpec sparse = dense;
  auto& fc = std::get<FcLayer>(sparse.layers[0]);
  fc.mask.assign(100 * 50, 0);
  for (size_t i = 0; i < fc.mask.size(); i += 10) fc.mask[i] = 1;  // keep 10%

  const GateCount gd = count_model(dense);
  const GateCount gs = count_model(sparse);
  EXPECT_LT(gs.num_non_xor * 5, gd.num_non_xor);
}

TEST(GateCount, BlockCostsSanity) {
  const BlockCosts& c = block_costs(kFmt);
  EXPECT_EQ(c.add.num_non_xor, 15u);
  EXPECT_EQ(c.relu.num_non_xor, 15u);
  EXPECT_GT(c.mult.num_non_xor, 100u);
  // The multiplier's partial products AND a weight's Booth digit flags,
  // which the evaluator knows: one row each. Its x-only prologue (-x,
  // two-row) is split off; the weight-only part is free XORs. ADD and
  // MAX combine garbled values only.
  EXPECT_EQ(c.mult.num_non_xor, 408u);
  EXPECT_EQ(c.mult.num_one_row, 275u);
  EXPECT_EQ(c.mult_prologue.num_non_xor, 15u);
  EXPECT_EQ(c.mult_prologue.num_one_row, 0u);
  EXPECT_EQ(c.mult_weight.num_non_xor, 0u);
  const GateCount lone = c.mult + c.mult_prologue + c.mult_weight;
  EXPECT_EQ(lone.num_non_xor, 423u);
  EXPECT_EQ(lone.comm_bytes(), (423u - 275u) * 32 + 275u * 16);
  EXPECT_EQ(c.add.num_one_row, 0u);
  EXPECT_EQ(c.max.num_one_row, 0u);
  EXPECT_GT(c.div.num_non_xor, c.add.num_non_xor);
  EXPECT_GT(c.act[static_cast<int>(ActKind::kTanhLUT)].num_non_xor,
            c.act[static_cast<int>(ActKind::kTanhPL)].num_non_xor);
}

}  // namespace
}  // namespace deepsecure::synth
