// Model compiler: turns a DL architecture description (the public
// knowledge in the protocol — layer types and sizes, plus the public
// sparsity map from pruning) into GC netlists.
//
// The client's data sample enters as garbler inputs; the server's weights
// and biases enter as evaluator inputs in a deterministic traversal order
// (see weight_count / flatten order below) that the core glue uses when
// quantizing trained models.
//
// Layout convention: feature maps are flattened channel-major,
// index = (ch * H + y) * W + x.
//
// Weight order per layer:
//   FC:   for o in [0,out): for i in [0,in): if mask[o*in+i] -> w[o][i]
//         then for o: bias[o]
//   Conv: for oc: for ic: for ky: for kx: w[oc][ic][ky][kx]; then bias[oc]
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "synth/activation.h"
#include "synth/matvec.h"
#include "synth/softmax.h"

namespace deepsecure::synth {

struct Shape3 {
  size_t h = 1, w = 1, c = 1;
  size_t flat() const { return h * w * c; }
};

struct FcLayer {
  size_t out = 0;
  /// Public sparsity map, row-major [out][in]; empty = dense.
  std::vector<uint8_t> mask;
  bool has_bias = true;
};

struct ConvLayer {
  size_t k = 5;
  size_t stride = 1;
  size_t out_ch = 1;
  bool has_bias = true;
};

enum class PoolKind { kMax, kMean };

struct PoolLayer {
  PoolKind kind = PoolKind::kMax;
  size_t k = 2;
  size_t stride = 2;
};

struct ActLayer {
  ActKind kind = ActKind::kReLU;
};

/// Softmax output stage, realized as argmax (inference label index).
struct ArgmaxLayer {};

using LayerSpec =
    std::variant<FcLayer, ConvLayer, PoolLayer, ActLayer, ArgmaxLayer>;

struct ModelSpec {
  std::string name;
  Shape3 input;
  std::vector<LayerSpec> layers;
  FixedFormat fmt = kDefaultFormat;
};

/// Output shape after applying `layer` to `in` (validates dimensions).
Shape3 layer_output_shape(const Shape3& in, const LayerSpec& layer);
Shape3 model_output_shape(const ModelSpec& spec);

/// Number of private weight scalars the evaluator feeds, in order.
size_t layer_weight_count(const Shape3& in, const LayerSpec& layer);
size_t model_weight_count(const ModelSpec& spec);

/// Compile the whole model into one combinational netlist.
Circuit compile_model(const ModelSpec& spec);

/// Compile one netlist per layer for chained (layer-pipelined) GC
/// execution; layer i's garbler inputs are bound to layer i-1's output
/// labels by the protocol driver.
std::vector<Circuit> compile_model_layers(const ModelSpec& spec);

/// Layer `index` of `spec` alone, exactly as compile_model_layers
/// builds it (the served chain, synth/served.h, compiles its non-linear
/// layers one by one and never builds a linear layer's multipliers).
Circuit compile_layer(const ModelSpec& spec, size_t index);

}  // namespace deepsecure::synth
