// Linear layers by OT multiplication (Gilboa, CRYPTO 1999): the front
// of every served stage (synth/served.h), before its garbled chain runs.
//
// For every product x*w of a stage's linear layer, n = fmt.total_bits
// arithmetic OTs (gc/ot.h) on the session's existing IKNP setup give
// the parties additive shares mod 2^(n+f). The input x is itself
// additively shared, x = x_c + x_s (mod 2^32):
//
//   server = OT receiver, choice bits = the n bits of w
//   client = OT sender, correlation x_c*2^k for bit k < n-1 and
//            -x_c*2^(n-1) for the sign bit
//
// The receiver learns p_k + w_k*d_k, the sender keeps p_k, so
// s = sum_k (p_k + w_k*d_k) + x_s*w and c = -sum_k p_k add up to x*w;
// the server adds x_s*w locally. One round trip: the server's packed u
// columns (16 B per OT), the client's 4 B per OT. Each party then sums
// its product shares per neuron in plaintext, the server adding the
// bias times 2^f, and feeds the share circuit the n+f low bits of each
// sum: the layer is truncated once per neuron, not once per product.
//
// Layer 0 is the special case x_c = x (the client's data), x_s = 0. A
// hidden layer's x leaves the previous stage's chain XOR-shared, bit k
// = g_k ^ e_k with g_k the client's and e_k the server's share bit, and
// B2A makes it additive first, one arithmetic OT per bit. With
// coef_k = 2^k (coef_{n-1} = -2^(n-1)) and g ^ e = g + e - 2ge:
//
//   server = OT receiver, choice bits e_k
//   client = OT sender, correlation d_k = -2*coef_k*g_k
//   x_c = sum_k coef_k*g_k - sum_k p_k
//   x_s = sum_k coef_k*e_k + sum_k (p_k + e_k*d_k)
//
// so x_c + x_s = sum_k coef_k*(g_k ^ e_k) = x (mod 2^32). Neither share
// alone says anything about x or w: each is uniform given the other
// party's view (semi-honest IKNP + random pads).
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

/// The client's shares of layer 0's inputs: the data itself, mod 2^32.
std::vector<uint32_t> data_shares(const synth::FrontPlan& plan,
                                  const BitVec& data_bits);

/// The client's OT correlations for its input shares `x`, n per product
/// in plan order, mod 2^32.
std::vector<uint32_t> front_correlations(const synth::FrontPlan& plan,
                                         const std::vector<uint32_t>& x);

/// The server's OT choice bits for the layer's weights `w`: the n bits
/// of each product's weight, in plan order.
BitVec front_choices(const synth::FrontPlan& plan,
                     const std::vector<int64_t>& w);

/// The client's share-circuit inputs from its OT pads: per neuron,
/// C_j = -sum of its products' pads, n+f bits.
BitVec client_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& pads);

/// The server's share-circuit inputs from its OT outputs, weights and
/// input shares `x`: per neuron, S_j = the sum of its products' OT
/// outputs and x*w, plus bias*2^f, n+f bits.
BitVec server_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& received,
                         const std::vector<int64_t>& w,
                         const std::vector<uint32_t>& x);

/// B2A, client side: the correlations -2*coef_k*g_k of XOR share bits
/// `g` (n per word).
std::vector<uint32_t> b2a_correlations(const BitVec& g, FixedFormat fmt);

/// B2A, client side: x_c per word from its share bits and OT pads.
std::vector<uint32_t> b2a_client(const BitVec& g,
                                 const std::vector<uint32_t>& pads,
                                 FixedFormat fmt);

/// B2A, server side: x_s per word from its share bits (the OT choices)
/// and OT outputs.
std::vector<uint32_t> b2a_server(const BitVec& e,
                                 const std::vector<uint32_t>& received,
                                 FixedFormat fmt);

/// Client half of a B2A exchange over XOR share bits `g`.
std::vector<uint32_t> b2a_send(GarblerSession& session, const BitVec& g,
                               FixedFormat fmt);

/// Server half of a B2A exchange over XOR share bits `e`.
std::vector<uint32_t> b2a_recv(EvaluatorSession& session, const BitVec& e,
                               FixedFormat fmt);

/// Client half of the front: `x` are its input shares; returns the
/// share circuit's garbler-input bits.
BitVec front_send(GarblerSession& session, const synth::FrontPlan& plan,
                  const std::vector<uint32_t>& x);

/// Server half: `x` are its input shares (all zero for layer 0);
/// returns the share circuit's evaluator-input bits.
BitVec front_recv(EvaluatorSession& session, const synth::FrontPlan& plan,
                  const std::vector<int64_t>& w,
                  const std::vector<uint32_t>& x);

// ---------------------------------------------------------------------
// One on-demand inference over the served stages: the protocol of the
// runtime (client and server) and of secure_infer. Per stage each party
// runs the front (for stages > 0 on B2A of its XOR shares of the
// previous stage's outputs), then run_stage with the share bits as
// chain[0]'s inputs. Both return the last stage's output labels; the
// caller opens them (GarblerSession::open / EvaluatorSession::open).

/// compile_served(spec) with every stage's chain walked (walk_chain):
/// the only netlist a party serving `spec` keeps.
synth::ServedModel walked_served(const synth::ModelSpec& spec);

/// The server's weights, `weight_bits` in the reference weight order
/// (model_weight_count words), split per stage front in layer order;
/// non-linear layers have none. Throws std::invalid_argument on a bit
/// count that does not match the fronts.
std::vector<std::vector<int64_t>> front_weights(
    const synth::ServedModel& served, const BitVec& weight_bits);

/// Client half: `x` are stage 0's input shares (data_shares in direct
/// mode). Returns the last stage's output zero labels.
Labels garble_stages(GarblerSession& session,
                     const std::vector<synth::ServedStage>& stages,
                     const std::vector<uint32_t>& x);

/// Server half: `weights` as front_weights gives them, `x` its shares
/// of stage 0's inputs (zeros in direct mode). Returns the last
/// stage's active output labels.
Labels evaluate_stages(EvaluatorSession& session,
                       const std::vector<synth::ServedStage>& stages,
                       const std::vector<std::vector<int64_t>>& weights,
                       const std::vector<uint32_t>& x);

}  // namespace deepsecure::runtime
