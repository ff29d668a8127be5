// Analytic gate accounting (Table 2 methodology): per-operation XOR /
// non-XOR costs are measured once from synthesized blocks, then rolled up
// over the network dimensions. This is how the paper (and this repo)
// obtains gate totals for networks far too large to materialize
// (benchmark 4 is ~5x10^9 gates).
#pragma once

#include <cstdint>

#include "synth/layer_circuits.h"

namespace deepsecure::synth {

struct GateCount {
  uint64_t num_xor = 0;
  uint64_t num_non_xor = 0;
  /// One-row ANDs (an operand the evaluator knows in plaintext, e.g. a
  /// Booth digit flag of a weight): the subset of num_non_xor that ships
  /// one row, not two.
  uint64_t num_one_row = 0;

  GateCount& operator+=(const GateCount& o) {
    num_xor += o.num_xor;
    num_non_xor += o.num_non_xor;
    num_one_row += o.num_one_row;
    return *this;
  }
  friend GateCount operator*(GateCount c, uint64_t k) {
    return GateCount{c.num_xor * k, c.num_non_xor * k, c.num_one_row * k};
  }
  friend GateCount operator+(GateCount a, const GateCount& b) {
    a += b;
    return a;
  }
  /// Garbled-table bytes: 2 x 16 B per half-gates AND, 16 B per one-row
  /// AND.
  uint64_t comm_bytes() const {
    return 32 * (num_non_xor - num_one_row) + 16 * num_one_row;
  }
};

GateCount count_circuit(const Circuit& c);

/// Measured costs of the fundamental blocks at format `fmt` (built once
/// and memoized per format). Each block's operands are owned as in a
/// network layer: MULT and DIV take an evaluator operand (a weight), so
/// their ANDs on it count as one-row; ADD and MAX combine two garbled
/// values (products, activations), so all their ANDs are two-row.
struct BlockCosts {
  GateCount add;
  /// ADD of two n+f-bit full products: a linear layer's accumulator,
  /// which keeps every product bit and truncates once per neuron (the
  /// bias is then one n-bit ADD).
  GateCount add_wide;
  /// One MAC's multiplier (full n+f-bit product), without the parts
  /// that read one operand only.
  GateCount mult;
  /// The multiplier's x-only part (-x), which CSE emits once per x
  /// however many weights multiply it.
  GateCount mult_prologue;
  /// The weight-only part (the Booth digit XORs), emitted once per
  /// weight however many inputs it multiplies (conv). A lone MULT costs
  /// mult + mult_prologue + mult_weight.
  GateCount mult_weight;
  GateCount div;
  GateCount relu;
  GateCount max;          // CMP + MUX (pooling / argmax step)
  GateCount mean4;        // 2x2 mean pooling tail (const multiply)
  GateCount act[10];      // indexed by ActKind
};
const BlockCosts& block_costs(FixedFormat fmt);

/// Table-2-style roll-up of a whole model (exact for FC/conv/pool/act
/// chains built by compile_model, up to constant-folding variations that
/// are negligible at network scale).
GateCount count_model(const ModelSpec& spec);

/// Per-layer breakdown, same totals as count_model.
std::vector<GateCount> count_model_layers(const ModelSpec& spec);

}  // namespace deepsecure::synth
