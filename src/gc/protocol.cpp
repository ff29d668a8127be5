#include "gc/protocol.h"

#include <stdexcept>

namespace deepsecure {
namespace {

BitVec slice(const BitVec& bits, size_t offset, size_t n) {
  if (offset + n > bits.size())
    throw std::invalid_argument("protocol: input bits exhausted");
  return BitVec(bits.begin() + static_cast<ptrdiff_t>(offset),
                bits.begin() + static_cast<ptrdiff_t>(offset + n));
}

}  // namespace

BitVec output_shares(const Labels& labels) {
  BitVec bits(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) bits[i] = labels[i].lsb() ? 1 : 0;
  return bits;
}

GarblerSession::GarblerSession(Channel& ch, Block seed, const GcOptions& opt)
    : ch_(ch), garbler_(ch, seed, opt), ot_(ch), reverse_(ch),
      prg_(seed ^ Block{1, 0}) {}

EvaluatorSession::EvaluatorSession(Channel& ch, const GcOptions& opt)
    : ch_(ch), evaluator_(ch, opt), ot_(ch), reverse_(ch),
      prg_(Prg::from_os_entropy().next_block()), opt_(opt) {}

// One base-OT setup per session for both extensions, shared by the
// on-demand and the pooled paths (whichever runs first pays it).
void GarblerSession::ensure_ot() {
  if (ot_ready_) return;
  Stopwatch sw;
  ot_.setup(prg_);
  reverse_.setup_reverse(ot_, prg_);
  ot_ready_ = true;
  trace_.setup_s = sw.seconds();
}

void EvaluatorSession::ensure_ot() {
  if (ot_ready_) return;
  Stopwatch sw;
  ot_.setup(prg_);
  reverse_.setup_reverse(ot_, prg_);
  ot_ready_ = true;
  trace_.setup_s = sw.seconds();
}

Labels GarblerSession::run_stage(const std::vector<Circuit>& chain,
                                 const BitVec& data_bits) {
  ensure_ot();

  Labels carried;  // zero-labels of previous circuit's outputs
  for (size_t k = 0; k < chain.size(); ++k) {
    const Circuit& c = chain[k];
    PhaseSample ph;
    ph.step = k;

    // Garbler inputs: fresh for layer 0, carried labels afterwards.
    Labels g_zeros;
    if (k == 0) {
      g_zeros = garbler_.fresh_zeros(c.garbler_inputs.size());
    } else {
      if (carried.size() != c.garbler_inputs.size())
        throw std::invalid_argument("chain: layer width mismatch");
      g_zeros = carried;
    }

    // Evaluator inputs: the correlated OT draws their zero-labels (lsb 0).
    Stopwatch sw;
    const Labels e_zeros =
        ot_.send_correlated(c.evaluator_inputs.size(), garbler_.delta());
    if (k == 0) garbler_.send_active(data_bits, g_zeros);
    ph.ot_s = sw.seconds();

    sw.restart();
    carried = garbler_.garble(c, g_zeros, e_zeros, {});
    ph.garble_s = sw.seconds();
    trace_.phases.push_back(ph);
  }
  return carried;
}

BitVec GarblerSession::open(const Labels& zeros) {
  const BitVec out = garbler_.decode_outputs(zeros);
  // Share the plaintext result back (paper: Alice may share with Bob).
  ch_.send_bits(out);
  return out;
}

BitVec GarblerSession::run_chain(const std::vector<Circuit>& chain,
                                 const BitVec& data_bits) {
  Stopwatch total;
  const BitVec out = open(run_stage(chain, data_bits));
  trace_.total_s = total.seconds();
  return out;
}

Labels EvaluatorSession::run_stage(const std::vector<Circuit>& chain,
                                   const BitVec& weight_bits) {
  ensure_ot();

  size_t consumed = 0;
  Labels carried;
  for (size_t k = 0; k < chain.size(); ++k) {
    const Circuit& c = chain[k];
    PhaseSample ph;
    ph.step = k;

    Stopwatch sw;
    const size_t n_w = c.evaluator_inputs.size();
    const BitVec w_bits = slice(weight_bits, consumed, n_w);
    consumed += n_w;
    const Labels e_labels = ot_.recv_correlated(w_bits);
    Labels g_labels;
    if (k == 0) {
      g_labels = evaluator_.recv_active(c.garbler_inputs.size());
    } else {
      if (carried.size() != c.garbler_inputs.size())
        throw std::invalid_argument("chain: layer width mismatch");
      g_labels = carried;
    }
    ph.ot_s = sw.seconds();

    sw.restart();
    carried = evaluator_.evaluate(c, g_labels, e_labels, {});
    ph.eval_s = sw.seconds();
    trace_.phases.push_back(ph);
  }
  return carried;
}

BitVec EvaluatorSession::open(const Labels& active) {
  evaluator_.send_outputs(active);
  return ch_.recv_bits();
}

BitVec EvaluatorSession::run_chain(const std::vector<Circuit>& chain,
                                   const BitVec& weight_bits) {
  Stopwatch total;
  const BitVec out = open(run_stage(chain, weight_bits));
  trace_.total_s = total.seconds();
  return out;
}

BitVec GarblerSession::run_sequential(const Circuit& step, size_t cycles,
                                      const BitVec& data_bits) {
  Stopwatch total;
  ensure_ot();
  const size_t g_per = step.garbler_inputs.size();
  const size_t e_per = step.evaluator_inputs.size();
  if (data_bits.size() != g_per * cycles)
    throw std::invalid_argument("run_sequential: data size mismatch");

  // Cycle-0 state: public zeros, delivered like garbler inputs.
  Labels state = garbler_.fresh_zeros(step.state_inputs.size());
  garbler_.send_active(BitVec(state.size(), 0), state);

  Labels outs;
  for (size_t t = 0; t < cycles; ++t) {
    PhaseSample ph;
    ph.step = t;
    Stopwatch sw;
    const Labels g_zeros = garbler_.fresh_zeros(g_per);
    garbler_.send_active(slice(data_bits, t * g_per, g_per), g_zeros);
    const Labels e_zeros = ot_.send_correlated(e_per, garbler_.delta());
    ph.ot_s = sw.seconds();

    sw.restart();
    Labels next_state;
    outs = garbler_.garble(step, g_zeros, e_zeros, state, &next_state);
    state = std::move(next_state);
    ph.garble_s = sw.seconds();
    trace_.phases.push_back(ph);
  }

  const BitVec out = garbler_.decode_outputs(outs);
  ch_.send_bits(out);
  trace_.total_s = total.seconds();
  return out;
}

BitVec EvaluatorSession::run_sequential(const Circuit& step, size_t cycles,
                                        const BitVec& weight_bits) {
  Stopwatch total;
  ensure_ot();
  const size_t e_per = step.evaluator_inputs.size();
  if (weight_bits.size() != e_per * cycles)
    throw std::invalid_argument("run_sequential: weight size mismatch");

  Labels state = evaluator_.recv_active(step.state_inputs.size());

  Labels outs;
  for (size_t t = 0; t < cycles; ++t) {
    PhaseSample ph;
    ph.step = t;
    Stopwatch sw;
    const Labels g_labels = evaluator_.recv_active(step.garbler_inputs.size());
    const BitVec w_bits = slice(weight_bits, t * e_per, e_per);
    const Labels e_labels = ot_.recv_correlated(w_bits);
    ph.ot_s = sw.seconds();

    sw.restart();
    Labels next_state;
    outs = evaluator_.evaluate(step, g_labels, e_labels, state, &next_state);
    state = std::move(next_state);
    ph.eval_s = sw.seconds();
    trace_.phases.push_back(ph);
  }

  evaluator_.send_outputs(outs);
  const BitVec out = ch_.recv_bits();
  trace_.total_s = total.seconds();
  return out;
}

// --- offline/online split ----------------------------------------------

void GarblerSession::send_fixed_labels(const Labels& zeros, Block delta) {
  ensure_ot();
  Labels relabel = ot_.send_correlated(zeros.size(), delta);
  if (relabel.empty()) return;
  for (size_t j = 0; j < zeros.size(); ++j) relabel[j] ^= zeros[j];
  ch_.send_bytes(relabel.data(), relabel.size() * sizeof(Block));
}

void GarblerSession::send_online_labels(Block delta, const Labels& data_zeros,
                                        const BitVec& data_bits) {
  if (data_bits.size() != data_zeros.size())
    throw std::invalid_argument("send_online_labels: bit count mismatch");
  PhaseSample ph;
  ph.step = trace_.phases.size();
  Stopwatch sw;
  std::vector<Block> active(data_bits.size());
  for (size_t i = 0; i < data_bits.size(); ++i)
    active[i] = data_bits[i] ? (data_zeros[i] ^ delta) : data_zeros[i];
  ch_.send_blocks(active.data(), active.size());
  ph.ot_s = sw.seconds();  // online label transfer: the whole send cost
  trace_.phases.push_back(ph);
}

BitVec GarblerSession::recv_result() {
  // Result vectors are circuit outputs — generously bounded so a
  // corrupted peer length header cannot force a huge allocation.
  return ch_.recv_bits_bounded(uint64_t{1} << 24);
}

std::vector<uint32_t> GarblerSession::recv_vector(
    const BitVec& choices, const std::vector<uint32_t>& offset) {
  ensure_ot();
  Stopwatch sw;
  std::vector<uint32_t> out = reverse_.recv_vector(choices, offset);
  trace_.front_s += sw.seconds();
  return out;
}

std::vector<uint32_t> EvaluatorSession::send_vector(
    const std::vector<uint32_t>& offset, const std::vector<uint32_t>& delta) {
  ensure_ot();
  Stopwatch sw;
  std::vector<uint32_t> pads = reverse_.send_vector(offset, delta);
  trace_.front_s += sw.seconds();
  return pads;
}

Labels EvaluatorSession::recv_fixed_labels(const BitVec& choices) {
  ensure_ot();
  Labels labels = ot_.recv_correlated(choices);  // L0 ^ b*delta
  if (labels.empty()) return labels;
  Labels relabel(labels.size());                 // zeros ^ L0
  ch_.recv_bytes(relabel.data(), relabel.size() * sizeof(Block));
  for (size_t j = 0; j < labels.size(); ++j) labels[j] ^= relabel[j];
  otstat::bytes().add(relabel.size() * sizeof(Block));
  return labels;
}

Labels EvaluatorSession::evaluate_online(const std::vector<Circuit>& chain,
                                         const EvalMaterial& mat) {
  if (chain.empty())
    throw std::invalid_argument("evaluate_online: empty circuit chain");
  Stopwatch total;
  PhaseSample ph;
  ph.step = trace_.phases.size();

  Stopwatch sw;
  const Labels g_labels =
      evaluator_.recv_active(chain.front().garbler_inputs.size());
  ph.ot_s = sw.seconds();

  sw.restart();
  Labels out = evaluate_material(chain, mat, g_labels, opt_);
  ph.eval_s = sw.seconds();
  trace_.phases.push_back(ph);
  trace_.total_s += total.seconds();
  return out;
}

BitVec EvaluatorSession::open_online(const Labels& active,
                                     const BitVec& decode_bits) {
  const BitVec out = decode_labels(active, decode_bits);
  ch_.send_bits(out);
  return out;
}

}  // namespace deepsecure
