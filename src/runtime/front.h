// Layer 0 by OT multiplication (Gilboa, CRYPTO 1999): the front of a
// served inference, before the garbled chain runs.
//
// For every product x*w of the model's linear layer 0 (synth/served.h),
// n = fmt.total_bits arithmetic OTs (gc/ot.h) on the session's existing
// IKNP setup give the parties additive shares mod 2^(n+f):
//
//   server = OT receiver, choice bits = the n bits of w
//   client = OT sender, correlation x*2^k for bit k < n-1 and
//            -x*2^(n-1) for the sign bit (x sign-extended)
//
// The receiver learns p_k + w_k*d_k, the sender keeps p_k, so
// s = sum_k (p_k + w_k*d_k) and c = -sum_k p_k add up to x*w. One
// round trip: the server's packed u columns (16 B per OT), the client's
// 4 B per OT. Each party then derives the share circuit's inputs from
// its shares in plaintext: the low f bits of each product's share, and
// per neuron the sum of the high parts (the server's with the bias).
// Neither share alone says anything about x or w: each is uniform given
// the other party's view (semi-honest IKNP + random pads).
#pragma once

#include <cstdint>
#include <vector>

#include "gc/protocol.h"
#include "synth/served.h"

namespace deepsecure::runtime {

/// Raw fixed-point values (sign-extended) of the first `count` n-bit
/// words of `bits`.
std::vector<int64_t> decode_fixed(const BitVec& bits, size_t count,
                                  FixedFormat fmt);

/// The client's OT correlations for data `x`, n per product in plan
/// order, mod 2^32.
std::vector<uint32_t> front_correlations(const synth::FrontPlan& plan,
                                         const std::vector<int64_t>& x);

/// The server's OT choice bits for layer-0 weights `w`: the n bits of
/// each product's weight, in plan order.
BitVec front_choices(const synth::FrontPlan& plan,
                     const std::vector<int64_t>& w);

/// The client's share-circuit inputs from its OT pads (c = -sum p).
BitVec client_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& pads);

/// The server's share-circuit inputs from its OT outputs and weights
/// (the biases join its per-neuron sums).
BitVec server_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& received,
                         const std::vector<int64_t>& w);

/// Client half of the exchange: `data_bits` are the layer-0 inputs;
/// returns the share circuit's garbler-input bits.
BitVec front_send(GarblerSession& session, const synth::FrontPlan& plan,
                  const BitVec& data_bits);

/// Server half: returns the share circuit's evaluator-input bits.
BitVec front_recv(EvaluatorSession& session, const synth::FrontPlan& plan,
                  const std::vector<int64_t>& w);

}  // namespace deepsecure::runtime
