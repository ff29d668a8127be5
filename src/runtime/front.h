// Linear layers by OT multiplication (Gilboa, CRYPTO 1999, vectorized
// as in SecureML, Mohassel-Zhang S&P 2017): the front of every served
// stage (synth/served.h), before its garbled chain runs.
//
// A stage's input x_i arrives XOR-shared, n = fmt.total_bits bits of
// it, bit k = g_k ^ e_k with g_k the client's and e_k the server's
// share bit. With coef_k = 2^k (coef_{n-1} = -2^(n-1)) and the identity
// g ^ e = g + e - 2ge,
//
//   x_i*w_p = sum_k coef_k*e_k*w_p + sum_k g_k * coef_k*w_p*(1 - 2e_k)
//
// (mod 2^32) for every product p = (i, j) of the layer. The first sum
// is the server's alone. The second is one vector arithmetic OT per
// input bit (gc/ot.h), on the session's reverse extension:
//
//   client = OT receiver, choice bit g_k
//   server = OT sender, one correlation coef_k*w_p*(1 - 2e_k) for each
//            product p that uses input i (FrontPlan::uses)
//
// The client learns pad + g_k*d per product, the server keeps -pad, so
// the two shares of x_i*w_p are c = sum_k (pad_k + g_k*d_k) and s =
// E_i*w_p - sum_k pad_k, where E_i = sum_k coef_k*e_k is the server's
// share word read as a signed value. One round trip: the client's
// packed u columns (16 B per input bit), the server's 4 B per product
// per bit. Each party then sums its product shares per neuron in
// plaintext, the server adding the bias times 2^f, and feeds the share
// circuit the n+f low bits of each sum: the layer is truncated once per
// neuron, not once per product.
//
// Layer 0 in direct mode is the special case g = the client's data,
// e = 0; in outsourced mode g and e are the two halves of the data's
// XOR split. A hidden layer's g and e are the previous stage's output
// shares (output_shares), so no stage needs a B2A conversion. Neither
// share alone says anything about x or w: each is uniform given the
// other party's view (semi-honest IKNP + random pads).
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

/// The front's OT layout: OT i*n + k (bit k of input i) carries words
/// [offset[i*n + k], offset[i*n + k + 1]), one per product of input i in
/// plan.uses order; ots() + 1 entries.
std::vector<uint32_t> ot_offsets(const synth::FrontPlan& plan);

/// The server's OT correlations coef_k*w_p*(1 - 2e_k) in ot_offsets
/// layout, from the layer's weights `w` and its XOR share bits `e` of
/// the inputs (n per input; empty for all zero).
std::vector<uint32_t> product_correlations(const synth::FrontPlan& plan,
                                           const std::vector<int64_t>& w,
                                           const BitVec& e);

/// The client's share-circuit inputs from its OT outputs: per neuron,
/// C_j = the sum of its products' words, n+f bits.
BitVec client_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& received);

/// The server's share-circuit inputs from its OT pads, weights and
/// share bits `e` (as in product_correlations): per neuron, S_j = the
/// sum of E_i*w_p minus its products' pads, plus bias*2^f, n+f bits.
BitVec server_share_bits(const synth::FrontPlan& plan,
                         const std::vector<uint32_t>& pads,
                         const std::vector<int64_t>& w, const BitVec& e);

/// Wire bytes of plan's front, both directions: one vector OT batch of
/// ots() OTs carrying correlations() words.
uint64_t front_bytes(const synth::FrontPlan& plan);

/// Client half of the front: `g` are its XOR share bits of the layer's
/// inputs (the OT choices); returns the share circuit's garbler-input
/// bits.
BitVec front_send(GarblerSession& session, const synth::FrontPlan& plan,
                  const BitVec& g);

/// Server half: `e` are its XOR share bits of the inputs (empty for all
/// zero); returns the share circuit's evaluator-input bits.
BitVec front_recv(EvaluatorSession& session, const synth::FrontPlan& plan,
                  const std::vector<int64_t>& w, const BitVec& e);

// ---------------------------------------------------------------------
// One on-demand inference over the served stages: the protocol of the
// runtime (client and server) and of secure_infer. Per stage each party
// runs the front (for stages > 0 on its XOR shares of the previous
// stage's outputs), then run_stage with the share bits as chain[0]'s
// inputs. Both return the last stage's output labels; the
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

/// Client half: `g` are its XOR share bits of stage 0's inputs (the
/// data itself in direct mode). Returns the last stage's output zero
/// labels.
Labels garble_stages(GarblerSession& session,
                     const std::vector<synth::ServedStage>& stages,
                     const BitVec& g);

/// Server half: `weights` as front_weights gives them, `e` its XOR
/// share bits of stage 0's inputs (empty in direct mode). Returns the
/// last stage's active output labels.
Labels evaluate_stages(EvaluatorSession& session,
                       const std::vector<synth::ServedStage>& stages,
                       const std::vector<std::vector<int64_t>>& weights,
                       const BitVec& e);

}  // namespace deepsecure::runtime
