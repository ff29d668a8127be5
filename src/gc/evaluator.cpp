#include "gc/garble.h"

#include <stdexcept>

#include "crypto/aes128.h"
#include "crypto/hash_backend.h"
#include "gc/batch_walk.h"
#include "gc/block_io.h"

namespace deepsecure {

Labels Evaluator::evaluate(const Circuit& c, const Labels& garbler_labels,
                           const Labels& evaluator_labels,
                           const Labels& state_labels, Labels* state_next) {
  if (garbler_labels.size() != c.garbler_inputs.size() ||
      evaluator_labels.size() != c.evaluator_inputs.size() ||
      state_labels.size() != c.state_inputs.size())
    throw std::invalid_argument("evaluate: input label count mismatch");

  // Walk the same view the garbler walked (see garbler.cpp); tables
  // and tweaks are consumed in that shared order, and labels live in
  // its slots.
  std::shared_ptr<const Circuit> sched;
  const Circuit& walk = opt_.schedule ? *(sched = c.gc_scheduled()) : c;

  Labels w(walk.num_wires);
  w[kConst0] = ch_.recv_block();
  w[kConst1] = ch_.recv_block();

  for (size_t i = 0; i < garbler_labels.size(); ++i)
    w[walk.garbler_inputs[i]] = garbler_labels[i];
  for (size_t i = 0; i < evaluator_labels.size(); ++i)
    w[walk.evaluator_inputs[i]] = evaluator_labels[i];
  for (size_t i = 0; i < state_labels.size(); ++i)
    w[walk.state_inputs[i]] = state_labels[i];

  // Framed mode self-describes (length-prefixed window frames), so the
  // reader needs no total; monolithic mode must know the stream length.
  BlockReader tables(ch_, 1 << 15, opt_.framed_tables);
  if (!opt_.framed_tables)
    tables.expect(c.stats().table_bytes() / sizeof(Block));
  if (opt_.pipeline == GcPipeline::kScalar)
    evaluate_gates_scalar(walk, w, tables);
  else
    evaluate_gates_batched(walk, w, tables);

  if (state_next != nullptr) {
    state_next->resize(walk.state_next.size());
    for (size_t i = 0; i < walk.state_next.size(); ++i)
      (*state_next)[i] = w[walk.state_next[i]];
  }
  Labels out(walk.outputs.size());
  for (size_t i = 0; i < walk.outputs.size(); ++i)
    out[i] = w[walk.outputs[i]];
  return out;
}

// Retained scalar reference path (see garbler.cpp for rationale).
void Evaluator::evaluate_gates_scalar(const Circuit& c, Labels& w,
                                      BlockReader& tables) {
  for (const Gate& g : c.gates) {
    if (g.op == GateOp::kXor) {
      w[g.out] = w[g.a] ^ w[g.b];
      continue;
    }
    const Block wa = w[g.a];
    const Block wb = w[g.b];
    if (g.op == GateOp::kAndKnown) {
      // lsb(wb) is b itself, a bit this party owns.
      const Block t = tables.get();
      Block out = gc_hash(wb, tweak_++);
      if (wb.lsb()) out ^= t ^ wa;
      w[g.out] = out;
      continue;
    }
    const uint64_t j0 = tweak_++;
    const uint64_t j1 = tweak_++;
    const Block tg = tables.get();
    const Block te = tables.get();

    Block wgc = gc_hash(wa, j0);
    if (wa.lsb()) wgc ^= tg;
    Block wec = gc_hash(wb, j1);
    if (wb.lsb()) wec ^= te ^ wa;
    w[g.out] = wgc ^ wec;
  }
}

// Batched pipeline, mirroring Garbler::garble_gates_batched: the same
// flush schedule applies because both sides defer exactly the AND gates.
// One hash per table row (two per half-gates AND, one per one-row AND);
// table rows are consumed at enqueue time, which keeps the read stream
// in gate order regardless of flush timing. A one-row AND's row is
// folded at enqueue into what its hash is XORed with: T ^ A when
// lsb(B) = 1, zero otherwise.
void Evaluator::evaluate_gates_batched(const Circuit& c, Labels& w,
                                       BlockReader& tables) {
  const HashBackend& be =
      opt_.hash_backend != nullptr ? *opt_.hash_backend : hash_backend();
  EvalWindowLine line(kGcMaxBatchWindow);

  auto flush = [&](bool /*level_boundary*/) {
    // The reader side is frame-agnostic (frames self-describe), so the
    // flush reason is irrelevant here — only the drain schedule matters.
    const size_t n = line.size;
    if (n == 0) return;
    gc_hash_batch(be, line.ins, line.tweaks, line.hashes, line.rows[n]);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = line.rows[i];
      if (line.rows[i + 1] - r == 1) {
        w[line.outs[i]] = line.hashes[r] ^ line.tabs[r];
        continue;
      }
      const Block wa = line.ins[r];
      Block wgc = line.hashes[r];
      if (wa.lsb()) wgc ^= line.tabs[r];
      Block wec = line.hashes[r + 1];
      if (line.ins[r + 1].lsb()) wec ^= line.tabs[r + 1] ^ wa;
      w[line.outs[i]] = wgc ^ wec;
    }
    line.size = 0;
  };

  gc_batched_walk(
      c,
      [&](const Gate& g) { w[g.out] = w[g.a] ^ w[g.b]; },  // free-XOR
      [&](const Gate& g) {
        const size_t i = line.size++;
        uint32_t r = line.rows[i];
        if (g.op == GateOp::kAndKnown) {
          const Block wb = w[g.b];
          const Block t = tables.get();
          line.ins[r] = wb;
          line.tabs[r] = wb.lsb() ? t ^ w[g.a] : Block{0, 0};
          line.tweaks[r++] = tweak_++;
        } else {
          line.ins[r] = w[g.a];
          line.ins[r + 1] = w[g.b];
          line.tabs[r] = tables.get();
          line.tabs[r + 1] = tables.get();
          line.tweaks[r++] = tweak_++;
          line.tweaks[r++] = tweak_++;
        }
        line.rows[i + 1] = r;
        line.outs[i] = g.out;
      },
      flush);
}

Labels Evaluator::recv_active(size_t n) {
  Labels labels(n);
  if (n > 0) ch_.recv_bytes(labels.data(), n * sizeof(Block));
  return labels;
}

void Evaluator::send_outputs(const Labels& labels) {
  if (!labels.empty())
    ch_.send_bytes(labels.data(), labels.size() * sizeof(Block));
}

BitVec Evaluator::decode_with_info(const Labels& labels) {
  const BitVec perm = ch_.recv_bits();
  if (perm.size() != labels.size())
    throw std::runtime_error("decode_with_info: size mismatch");
  BitVec bits(labels.size());
  for (size_t i = 0; i < labels.size(); ++i)
    bits[i] = (labels[i].lsb() ? 1u : 0u) ^ perm[i];
  return bits;
}

}  // namespace deepsecure
