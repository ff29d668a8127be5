// The served chain: what the runtime garbles for a model whose first
// layer is linear (FC or conv).
//
// Layer 0 multiplies the client's data x by the server's weights w,
// both plaintext to one party. The runtime does not garble those
// products: Gilboa OT multiplication (runtime/front.h) gives the
// parties additive shares c + s = x*w mod 2^(n+f) per product, and
// Fixed::operator* keeps bits [f, f+n) of it:
//
//   trunc(x*w) = (c >> f) + (s >> f) + [c_lo + s_lo >= 2^f]  (mod 2^n)
//
// with c_lo, s_lo the low f bits. Each party sums its high parts per
// neuron in plaintext (the server adds the bias to its own), so the
// garbled layer 0 shrinks to the share circuit: one f-bit carry per
// product, a popcount of the carries per neuron, and C_j + S_j + K_j.
//
// compile_served returns the plan of those products and the served
// chain: chain[0] is the share circuit, chain[1..] are layers 1..n as
// compile_model_layers builds them. compile_model_layers stays the
// plaintext reference: chain[0]'s outputs equal its layer 0's outputs
// for every x, w and every pair of shares.
#pragma once

#include <cstdint>
#include <vector>

#include "synth/layer_circuits.h"

namespace deepsecure::synth {

/// One product of layer 0: x[input] * w[weight], both indices into the
/// layer's own input scalars and weight scalars (reference order, see
/// layer_circuits.h).
struct FrontProduct {
  uint32_t input = 0;
  uint32_t weight = 0;
};

/// The products of a linear layer 0, grouped by output neuron in the
/// order the reference layer sums them.
struct FrontPlan {
  static constexpr uint32_t kNoBias = ~uint32_t{0};

  FixedFormat fmt;
  size_t inputs = 0;   // layer-0 input scalars (the client's data)
  size_t weights = 0;  // layer-0 weight scalars, biases included
  std::vector<FrontProduct> products;
  /// Neuron j owns products [first[j], first[j+1]); neurons() + 1 entries.
  std::vector<uint32_t> first;
  /// Neuron j's bias weight index, or kNoBias.
  std::vector<uint32_t> bias;

  size_t neurons() const { return bias.size(); }
  /// Arithmetic OTs per inference: one per weight bit of every product.
  size_t ots() const { return products.size() * fmt.total_bits; }
  /// Bits each party feeds the share circuit: f low share bits per
  /// product, then n bits of its per-neuron sum.
  size_t share_bits() const {
    return products.size() * fmt.frac_bits + neurons() * fmt.total_bits;
  }
};

/// Plan of a linear `layer` on input shape `in`; throws
/// std::invalid_argument for any other layer kind.
FrontPlan front_plan(const Shape3& in, const LayerSpec& layer,
                     FixedFormat fmt);

/// The share circuit of `plan`. Garbler inputs: the client's low share
/// bits (f per product, plan order), then its per-neuron sums C_j (n
/// bits each). Evaluator inputs: the server's low share bits, then its
/// per-neuron sums S_j (bias included). Outputs: n bits per neuron,
/// C_j + S_j + K_j mod 2^n.
Circuit share_circuit(const FrontPlan& plan, const std::string& name);

struct ServedModel {
  FrontPlan front;
  std::vector<Circuit> chain;
};

/// Compile the served chain of `spec`, whose first layer must be FC or
/// conv. Layer 0's multipliers are never built.
ServedModel compile_served(const ModelSpec& spec);

}  // namespace deepsecure::synth
