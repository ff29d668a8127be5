// Two-party GC session driver — the paper's core structure (Figure 3):
//
//   client (Alice) = garbler, owns the data sample
//   server (Bob)   = evaluator, owns the DL model parameters
//
//   (1) Alice garbles the netlist          (4) Bob returns output labels
//   (2) label transfer + OT                (5) Alice decodes ("merges")
//   (3) Bob evaluates
//
// Supports three execution shapes:
//   * single circuit (combinational)
//   * chained circuits (per-layer netlists; activations carried as
//     labels between layers — never revealed)
//   * sequential circuits (folded step circuit run for many cycles,
//     Section 3.5; state carried as labels between cycles)
//
// Two execution modes per shape-compatible chain:
//   * on-demand (run_stage / run_sequential): garbling, label transfer
//     and evaluation all happen on the request path — the PR 2
//     streaming pipeline.
//   * offline/online split: garble_offline (gc/material.h) produces a
//     GarbledMaterial ahead of time; the *_online methods run the
//     request-path remainder, which is label transfer plus evaluation.
//     send/recv_fixed_labels resolve the evaluator's labels of an
//     artifact garbled before its inputs were known.
//
// A chain run is a stage: it ends in XOR shares of its outputs, the
// permute bits of the garbler's zero labels and of the evaluator's
// active labels. Without the decoding information those bits tell the
// evaluator nothing (garbled-circuit obliviousness). open / open_online
// reveal a stage's outputs; run_chain is a stage and its opening. The
// runtime (runtime/front.h) feeds a stage's shares to the next one
// through vector arithmetic OTs (recv_vector/send_vector, gc/ot.h) on
// the session's reverse OT extension, and opens only the last.
//
// Each session holds two IKNP extensions over one set of base OTs
// (gc/ot.h): the forward one (garbler = sender) for labels, and the
// reverse one (garbler = receiver) for the fronts, seeded by kappa
// forward correlated OTs. Both are set up together, on first use.
//
// Phase timings are recorded per step for the Figure 5 reproduction.
#pragma once

#include <vector>

#include "gc/garble.h"
#include "gc/material.h"
#include "gc/ot.h"
#include "support/stopwatch.h"

namespace deepsecure {

struct PhaseSample {
  size_t step = 0;        // layer or clock-cycle index
  double garble_s = 0.0;  // garbler-side garbling time
  double ot_s = 0.0;      // label transfer / OT time (either side)
  double eval_s = 0.0;    // evaluator-side evaluation time
};

struct SessionTrace {
  std::vector<PhaseSample> phases;
  double total_s = 0.0;
  double setup_s = 0.0;  // base OTs + both extensions (once per session)
  double front_s = 0.0;  // the fronts' vector OTs, either side

  double sum_garble() const {
    double t = 0;
    for (const auto& p : phases) t += p.garble_s;
    return t;
  }
  double sum_eval() const {
    double t = 0;
    for (const auto& p : phases) t += p.eval_s;
    return t;
  }
};

/// This side's XOR shares of a stage's outputs: the permute bits (lsbs)
/// of its output labels, zero labels on the garbler's side and active
/// labels on the evaluator's.
BitVec output_shares(const Labels& labels);

/// Client-side session (garbler).
class GarblerSession {
 public:
  /// `seed` feeds the label PRG (use Prg::from_os_entropy().next_block()
  /// outside tests). `opt` selects pipeline and table framing (see
  /// GcOptions); framing must match the peer.
  GarblerSession(Channel& ch, Block seed, const GcOptions& opt = {});

  /// Run a chain of circuits as one stage. `data_bits` feed circuit 0's
  /// garbler inputs; circuit k>0 garbler inputs are bound to circuit
  /// k-1 outputs. Every circuit's evaluator inputs are transferred via
  /// correlated OT, which also draws their zero labels. Returns the
  /// final circuit's output zero labels: their lsbs are this side's XOR
  /// shares of the outputs.
  Labels run_stage(const std::vector<Circuit>& chain, const BitVec& data_bits);

  /// Open a stage: receive the evaluator's output labels, decode them
  /// against `zeros` (a label not in its wire's range throws) and share
  /// the plaintext back. Returns the output bits.
  BitVec open(const Labels& zeros);

  /// run_stage, then open: the decoded output bits of the final circuit.
  BitVec run_chain(const std::vector<Circuit>& chain, const BitVec& data_bits);

  /// Run a folded circuit for `cycles` cycles. Garbler inputs are fed
  /// per cycle from consecutive slices of `data_bits`; state is carried.
  BitVec run_sequential(const Circuit& step, size_t cycles,
                        const BitVec& data_bits);

  // --- offline/online split -------------------------------------------
  /// Transfer labels fixed before the OT ran — a GarbledMaterial's
  /// `eval_zeros` under its `delta` — for the peer's choice bits. One
  /// correlated OT batch under `delta` (zero labels L0), then one
  /// relabel block `zeros[j] ^ L0[j]` per bit.
  void send_fixed_labels(const Labels& zeros, Block delta);

  /// Online: ship the active labels for `data_bits` against a
  /// material's circuit-0 garbler-input zero labels. Returns right
  /// after the send.
  void send_online_labels(Block delta, const Labels& data_zeros,
                          const BitVec& data_bits);

  /// Online: the decoded output bits of an opened online stage (the
  /// evaluator decodes locally with the material's decode bits and
  /// shares the plaintext back).
  BitVec recv_result();

  /// One batch of vector arithmetic OTs as receiver on the reverse
  /// extension (see OtExtReceiver::recv_vector): pad + choice*delta per
  /// word. Timed into trace().front_s.
  std::vector<uint32_t> recv_vector(const BitVec& choices,
                                    const std::vector<uint32_t>& offset);

  const SessionTrace& trace() const { return trace_; }

 private:
  void ensure_ot();

  Channel& ch_;
  Garbler garbler_;
  OtExtSender ot_;
  OtExtReceiver reverse_;
  Prg prg_;
  bool ot_ready_ = false;
  SessionTrace trace_;
};

/// Server-side session (evaluator).
class EvaluatorSession {
 public:
  explicit EvaluatorSession(Channel& ch, const GcOptions& opt = {});

  /// Counterpart of run_stage: `weight_bits` are consumed circuit by
  /// circuit in declaration order of each circuit's evaluator inputs.
  /// Returns the final circuit's active output labels: their lsbs are
  /// this side's XOR shares of the outputs.
  Labels run_stage(const std::vector<Circuit>& chain,
                   const BitVec& weight_bits);

  /// Counterpart of GarblerSession::open: ship the output labels and
  /// return the output bits as decoded by the garbler (sent back so
  /// both parties can report the inference result, as in the paper's
  /// optional final share step).
  BitVec open(const Labels& active);

  /// run_stage, then open.
  BitVec run_chain(const std::vector<Circuit>& chain,
                   const BitVec& weight_bits);

  BitVec run_sequential(const Circuit& step, size_t cycles,
                        const BitVec& weight_bits);

  // --- offline/online split -------------------------------------------
  /// Counterpart of send_fixed_labels — the active labels for
  /// `choices` (the evaluator's input bits).
  Labels recv_fixed_labels(const BitVec& choices);

  /// Online: one stage against locally-stored material — receive the
  /// active circuit-0 garbler labels and evaluate the chain from the
  /// artifact's tables. Returns the active output labels (this side's
  /// XOR shares, as in run_stage).
  Labels evaluate_online(const std::vector<Circuit>& chain,
                         const EvalMaterial& mat);

  /// Online: open a stage with the material's decode bits and share
  /// the plaintext result back. Returns the decoded output bits.
  BitVec open_online(const Labels& active, const BitVec& decode_bits);

  /// Counterpart of recv_vector: returns the pads. Timed into
  /// trace().front_s.
  std::vector<uint32_t> send_vector(const std::vector<uint32_t>& offset,
                                    const std::vector<uint32_t>& delta);

  const SessionTrace& trace() const { return trace_; }

 private:
  void ensure_ot();

  Channel& ch_;
  Evaluator evaluator_;
  OtExtReceiver ot_;
  OtExtSender reverse_;
  Prg prg_;
  GcOptions opt_;
  bool ot_ready_ = false;
  SessionTrace trace_;
};

}  // namespace deepsecure
