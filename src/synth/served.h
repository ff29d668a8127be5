// The served model: what the runtime garbles for a model whose first
// layer is linear (FC or conv).
//
// Every linear layer multiplies its inputs x by the server's weights w
// and truncates once per neuron (synth/matvec.h):
//
//   y_j = floor(sum_p x_p*w_p / 2^f) + b_j  (mod 2^n)
//
// The runtime does not garble those products: Gilboa OT multiplication
// (runtime/front.h) gives the parties additive shares of each x*w mod
// 2^(n+f), one OT per bit of x carrying a word per product that uses
// it. Each party sums its shares per neuron in plaintext, the server
// adding b_j*2^f to its own, so C_j + S_j = sum x*w + b_j*2^f (mod
// 2^(n+f)). Bits [f, n+f) of that sum are y_j, so the garbled layer
// shrinks to the share circuit: one (n+f)-bit adder per neuron (n+f-1
// ANDs) whose outputs are those n bits.
//
// compile_served cuts the model into stages, one per linear layer:
//
//   stage = front (the layer's products, shared by OT)
//         + chain: the share circuit, then the non-linear layers up to
//           the next linear layer, each compiled alone
//
// Every front takes its x as XOR shares, bit k = g_k ^ e_k with g_k
// the client's and e_k the server's: layer 0's from the client's data
// (e = 0) or from an outsourcing split, a hidden layer's from the
// previous stage's chain (the permute bits of its output labels). The
// front folds g ^ e = g + e - 2ge into its correlations, so no stage
// converts shares first, and no multiplier is ever built.
// compile_model_layers stays the plaintext reference: each stage's
// chain equals its layers there for every x, w and pair of shares.
#pragma once

#include <cstdint>
#include <vector>

#include "synth/layer_circuits.h"

namespace deepsecure::synth {

/// One product of a linear layer: x[input] * w[weight], both indices
/// into the layer's own input scalars and weight scalars (reference
/// order, see layer_circuits.h).
struct FrontProduct {
  uint32_t input = 0;
  uint32_t weight = 0;
};

/// The products of a linear layer, grouped by output neuron in the
/// order the reference layer sums them.
struct FrontPlan {
  static constexpr uint32_t kNoBias = ~uint32_t{0};

  FixedFormat fmt;
  size_t inputs = 0;   // the layer's input scalars
  size_t weights = 0;  // the layer's weight scalars, biases included
  std::vector<FrontProduct> products;
  /// Neuron j owns products [first[j], first[j+1]); neurons() + 1 entries.
  std::vector<uint32_t> first;
  /// Neuron j's bias weight index, or kNoBias.
  std::vector<uint32_t> bias;
  /// Input i's products are uses[use_first[i], use_first[i+1]), in plan
  /// order; inputs + 1 entries.
  std::vector<uint32_t> use_first;
  std::vector<uint32_t> uses;

  size_t neurons() const { return bias.size(); }
  /// OTs of the front: one per bit of each input scalar.
  size_t ots() const { return inputs * fmt.total_bits; }
  /// 32-bit correlations the front's OTs carry: one per product per bit
  /// of its input.
  size_t correlations() const { return products.size() * fmt.total_bits; }
  /// Bits each party feeds the share circuit: its per-neuron sum, n+f
  /// bits each.
  size_t share_bits() const {
    return neurons() * (fmt.total_bits + fmt.frac_bits);
  }
};

/// Plan of a linear `layer` on input shape `in`; throws
/// std::invalid_argument for any other layer kind.
FrontPlan front_plan(const Shape3& in, const LayerSpec& layer,
                     FixedFormat fmt);

/// The share circuit of `plan`. Garbler inputs: the client's per-neuron
/// sums C_j, n+f bits each. Evaluator inputs: the server's per-neuron
/// sums S_j (bias*2^f included). Outputs: n bits per neuron, bits
/// [f, n+f) of C_j + S_j mod 2^(n+f).
Circuit share_circuit(const FrontPlan& plan, const std::string& name);

/// One linear layer and the non-linear layers after it. chain[0] is
/// share_circuit(front); its evaluator inputs are the only ones in the
/// chain. A stage's outputs stay XOR-shared unless it is the last.
struct ServedStage {
  FrontPlan front;
  std::vector<Circuit> chain;
};

struct ServedModel {
  std::vector<ServedStage> stages;
};

/// Compile the served stages of `spec`, whose first layer must be FC or
/// conv: one stage per FC/conv layer, in layer order.
ServedModel compile_served(const ModelSpec& spec);

}  // namespace deepsecure::synth
