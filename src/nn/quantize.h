// Fixed-point quantization of trained networks: flattening weights in
// the evaluator-input traversal order used by the circuit compiler, and
// a fixed-point reference forward pass for accuracy evaluation of the
// quantized model without building circuits.
#pragma once

#include "fixed/fixed_point.h"
#include "nn/network.h"

namespace deepsecure::nn {

/// Flatten all parameters in circuit order. Dense layers with a sparsity
/// mask contribute only unmasked weights (then biases); layer order is
/// network order.
std::vector<Fixed> quantize_weights(const Network& net, FixedFormat fmt);

/// Fixed-point forward pass (Q-format arithmetic; dense and conv layers
/// sum full products and truncate once per neuron — bit-exact with the
/// circuit datapath for supported layers: dense, conv, max/mean pool,
/// ReLU/Tanh/Sigmoid via exact LUT rounding on representable inputs).
std::vector<Fixed> fixed_forward(const Network& net, const VecF& x,
                                 FixedFormat fmt);

size_t fixed_predict(const Network& net, const VecF& x, FixedFormat fmt);

/// Accuracy of the fixed-point model over a dataset — quantifies the
/// paper's "no accuracy loss at 16 bits" claim.
float fixed_accuracy(const Network& net, const std::vector<VecF>& xs,
                     const std::vector<size_t>& ys, FixedFormat fmt);

/// Prepare a trained float network for fixed-point/GC deployment by
/// rescaling weights so every pre-activation fits the format's range
/// (otherwise the circuit's wrap-around arithmetic corrupts results).
///
/// For positively-homogeneous chains (ReLU/pool/identity) the rescaling
/// is exact: scaling (W_l, b_l) by per-layer factors preserves argmax.
/// For saturating activations (tanh/sigmoid) only the final dense layer
/// is scaled (always argmax-safe); intermediate layers are left alone
/// and the returned report flags any residual overflow risk.
struct ScaleReport {
  std::vector<double> layer_scale;
  double max_preactivation_before = 0.0;
  double max_preactivation_after = 0.0;
  bool fully_normalized = true;  // false if saturating layers blocked it
};
ScaleReport scale_for_fixed(Network& net, const std::vector<VecF>& calib,
                            FixedFormat fmt = kDefaultFormat,
                            double headroom = 0.45);

}  // namespace deepsecure::nn
