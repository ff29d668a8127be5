#include "gc/garble.h"

#include <stdexcept>

#include "crypto/aes128.h"
#include "crypto/hash_backend.h"
#include "gc/batch_walk.h"
#include "gc/block_io.h"

namespace deepsecure {

Garbler::Garbler(Channel& ch, Block seed, GcPipeline pipeline)
    : Garbler(ch, seed, GcOptions{.pipeline = pipeline}) {}

Garbler::Garbler(Channel& ch, Block seed, const GcOptions& opt)
    : ch_(ch), prg_(seed), opt_(opt) {
  delta_ = prg_.next_block();
  delta_.lo |= 1;  // point-and-permute: lsb(delta) = 1
}

Labels Garbler::fresh_zeros(size_t n) {
  Labels zeros(n);
  prg_.next_blocks(zeros.data(), n);
  return zeros;
}

Labels Garbler::fresh_known_zeros(size_t n) {
  Labels zeros = fresh_zeros(n);
  for (Block& z : zeros) z.lo &= ~uint64_t{1};
  return zeros;
}

Labels Garbler::garble(const Circuit& c, const Labels& garbler_zeros,
                       const Labels& evaluator_zeros, const Labels& state_zeros,
                       Labels* state_next) {
  if (garbler_zeros.size() != c.garbler_inputs.size() ||
      evaluator_zeros.size() != c.evaluator_inputs.size() ||
      state_zeros.size() != c.state_inputs.size())
    throw std::invalid_argument("garble: input label count mismatch");
  // One-row ANDs read an evaluator-known bit as its label's lsb; that
  // holds only if every evaluator-input zero-label has lsb 0.
  for (const Block& z : evaluator_zeros)
    if (z.lsb())
      throw std::invalid_argument(
          "garble: evaluator-input zero-label has lsb 1 "
          "(use fresh_known_zeros)");

  // The walked view (scheduled order, wires renumbered into label
  // slots) or the construction order; inputs, outputs and state bind
  // through whichever is walked. Both pipelines honor it so scalar
  // stays byte-identical to batched under the same options.
  std::shared_ptr<const Circuit> sched;
  const Circuit& walk = opt_.schedule ? *(sched = c.gc_scheduled()) : c;

  Labels w(walk.num_wires);
  // Constants: fresh labels each garbling; the evaluator receives the
  // *active* labels (value 0 for kConst0, value 1 for kConst1). Delta
  // never leaves this side.
  w[kConst0] = prg_.next_block();
  w[kConst1] = prg_.next_block();
  ch_.send_block(w[kConst0]);
  ch_.send_block(w[kConst1] ^ delta_);

  for (size_t i = 0; i < garbler_zeros.size(); ++i)
    w[walk.garbler_inputs[i]] = garbler_zeros[i];
  for (size_t i = 0; i < evaluator_zeros.size(); ++i)
    w[walk.evaluator_inputs[i]] = evaluator_zeros[i];
  for (size_t i = 0; i < state_zeros.size(); ++i)
    w[walk.state_inputs[i]] = state_zeros[i];

  BlockWriter tables(ch_, 1 << 15, opt_.framed_tables);
  if (opt_.pipeline == GcPipeline::kScalar)
    garble_gates_scalar(walk, w, tables);
  else
    garble_gates_batched(walk, w, tables);
  tables.flush();

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

// Retained scalar reference path: one gc_hash call per hash. Kept for
// cross-checking the batched pipeline (byte-identical tables) and as the
// baseline in the garble-throughput benchmarks.
void Garbler::garble_gates_scalar(const Circuit& c, Labels& w,
                                  BlockWriter& tables) {
  for (const Gate& g : c.gates) {
    if (g.op == GateOp::kXor) {
      w[g.out] = w[g.a] ^ w[g.b];  // free-XOR
      continue;
    }
    const Block a0 = w[g.a];
    const Block b0 = w[g.b];
    if (g.op == GateOp::kAndKnown) {
      // Evaluator half gate alone: the evaluator knows b = lsb(B_b).
      const uint64_t j = tweak_++;
      const Block hb0 = gc_hash(b0, j);
      tables.put(hb0 ^ gc_hash(b0 ^ delta_, j) ^ a0);
      w[g.out] = hb0;
      continue;
    }
    // Half-gates AND.
    const bool pa = a0.lsb();
    const bool pb = b0.lsb();
    const uint64_t j0 = tweak_++;
    const uint64_t j1 = tweak_++;

    const Block ha0 = gc_hash(a0, j0);
    const Block ha1 = gc_hash(a0 ^ delta_, j0);
    const Block hb0 = gc_hash(b0, j1);
    const Block hb1 = gc_hash(b0 ^ delta_, j1);

    Block tg = ha0 ^ ha1;
    if (pb) tg ^= delta_;
    Block wg = ha0;
    if (pa) wg ^= tg;

    const Block te = hb0 ^ hb1 ^ a0;
    Block we = hb0;
    if (pb) we ^= te ^ a0;

    tables.put(tg);
    tables.put(te);
    w[g.out] = wg ^ we;
  }
}

// Batched pipeline: AND gates are enqueued into a window whose hash
// pairs {x0, x0^delta} — two per half-gates AND (x0 = a0, b0), one per
// one-row AND (x0 = b0) — are expanded and hashed by gc_hash_pairs in
// one pipelined AES sweep, so a mixed window computes no hash it then
// discards. The window drains at the circuit's precomputed flush points
// (a gate reading a still-pending AND output), at capacity, and at the
// end of the gate list. Tweaks are assigned at enqueue time and tables
// are emitted in enqueue (= gate) order, so the byte stream is
// identical to the scalar schedule.
//
void Garbler::garble_gates_batched(const Circuit& c, Labels& w,
                                   BlockWriter& tables) {
  const HashBackend& be =
      opt_.hash_backend != nullptr ? *opt_.hash_backend : hash_backend();
  // Zero-copy plane: the staging line lives in a refcounted pool slab,
  // so a drained window's table rows ship as borrowed slices and the
  // line is replaced by a fresh slab instead of being reused — the old
  // slab stays pinned by the transport until its bytes are on the wire,
  // then recycles through the pool.
  const bool zero_copy = opt_.table_pool != nullptr;
  GarbleWindowLine line =
      zero_copy ? GarbleWindowLine(kGcMaxBatchWindow, *opt_.table_pool)
                : GarbleWindowLine(kGcMaxBatchWindow);

  auto flush = [&](bool level_boundary) {
    const size_t n = line.size;
    if (n == 0) {
      // A level whose AND count is an exact multiple of the window
      // capacity drains entirely via capacity flushes; its boundary
      // then arrives on an empty window and must still cut the frame,
      // or the level's tables would silently merge into the next
      // level's frame.
      if (level_boundary) tables.mark_window(true);
      return;
    }
    const size_t rows = line.rows[n];
    gc_hash_pairs(be, line.x0, delta_, line.tweaks, line.hashes, rows);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = line.rows[i];
      const Block* h = line.hashes + 2 * r;
      if (line.rows[i + 1] - r == 1) {
        // One-row AND: the row was staged holding a0.
        line.tabs[r] ^= h[0] ^ h[1];
        w[line.outs[i]] = h[0];
        continue;
      }
      const Block a0 = line.x0[r];
      const bool pb = line.x0[r + 1].lsb();

      Block tg = h[0] ^ h[1];
      if (pb) tg ^= delta_;
      Block wg = h[0];
      if (a0.lsb()) wg ^= tg;

      const Block te = h[2] ^ h[3] ^ a0;
      Block we = h[2];
      if (pb) we ^= te ^ a0;

      line.tabs[r] = tg;
      line.tabs[r + 1] = te;
      w[line.outs[i]] = wg ^ we;
    }
    if (zero_copy) {
      tables.put_borrowed(line.tabs, rows, line.slab());
      line = GarbleWindowLine(kGcMaxBatchWindow, *opt_.table_pool);
    } else {
      for (size_t i = 0; i < rows; ++i) tables.put(line.tabs[i]);
    }
    // Frames cut only at level boundaries: a capacity drain mid-level
    // keeps buffering so wide scheduled levels ship as one frame.
    tables.mark_window(level_boundary);
    line.size = 0;
  };

  gc_batched_walk(
      c,
      [&](const Gate& g) { w[g.out] = w[g.a] ^ w[g.b]; },  // free-XOR
      [&](const Gate& g) {
        const size_t i = line.size++;
        uint32_t r = line.rows[i];
        if (g.op == GateOp::kAndKnown) {
          line.x0[r] = w[g.b];
          line.tabs[r] = w[g.a];
          line.tweaks[r++] = tweak_++;
        } else {
          line.x0[r] = w[g.a];
          line.x0[r + 1] = w[g.b];
          line.tweaks[r++] = tweak_++;
          line.tweaks[r++] = tweak_++;
        }
        line.rows[i + 1] = r;
        line.outs[i] = g.out;
      },
      flush);
}

void Garbler::send_active(const BitVec& bits, const Labels& zeros) {
  if (bits.size() != zeros.size())
    throw std::invalid_argument("send_active size mismatch");
  std::vector<Block> active(bits.size());
  for (size_t i = 0; i < bits.size(); ++i)
    active[i] = bits[i] ? (zeros[i] ^ delta_) : zeros[i];
  if (!active.empty())
    ch_.send_bytes(active.data(), active.size() * sizeof(Block));
}

BitVec Garbler::decode_outputs(const Labels& output_zeros) {
  std::vector<Block> received(output_zeros.size());
  if (!received.empty())
    ch_.recv_bytes(received.data(), received.size() * sizeof(Block));
  BitVec bits(output_zeros.size());
  for (size_t i = 0; i < output_zeros.size(); ++i) {
    if (received[i] == output_zeros[i]) {
      bits[i] = 0;
    } else if (received[i] == (output_zeros[i] ^ delta_)) {
      bits[i] = 1;
    } else {
      throw std::runtime_error("decode_outputs: label not in wire range");
    }
  }
  return bits;
}

void Garbler::send_decode_info(const Labels& output_zeros) {
  BitVec perm(output_zeros.size());
  for (size_t i = 0; i < output_zeros.size(); ++i)
    perm[i] = output_zeros[i].lsb() ? 1 : 0;
  ch_.send_bits(perm);
}

}  // namespace deepsecure
