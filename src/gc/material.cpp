#include "gc/material.h"

#include <cstring>
#include <stdexcept>

namespace deepsecure {
namespace {

// Sink channel: garbling against it records the evaluator-bound byte
// stream instead of shipping it.
class ByteSink final : public Channel {
 public:
  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void recv_bytes(void*, size_t) override {
    throw std::logic_error("gc material: offline garbling cannot receive");
  }
  uint64_t bytes_sent() const override { return bytes.size(); }
  uint64_t bytes_received() const override { return 0; }
  // Deliberately not clearing `bytes`: the recording IS the artifact,
  // and a counter reset (e.g. per-phase comm accounting inside a future
  // garbling change) must not truncate it.
  void reset_counters() override {}

  std::vector<uint8_t> bytes;
};

// Source channel: replays a recorded stream to the evaluator.
class ByteSource final : public Channel {
 public:
  explicit ByteSource(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  void send_bytes(const void*, size_t) override {
    throw std::logic_error("gc material: online evaluation cannot send here");
  }
  void recv_bytes(void* data, size_t n) override {
    if (pos_ + n > bytes_.size())
      throw std::runtime_error("gc material: table stream exhausted");
    std::memcpy(data, bytes_.data() + pos_, n);
    pos_ += n;
  }
  uint64_t bytes_sent() const override { return 0; }
  uint64_t bytes_received() const override { return pos_; }
  void reset_counters() override {}

  size_t consumed() const { return pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

}  // namespace

uint64_t chain_fingerprint(const std::vector<Circuit>& chain,
                           bool scheduled) {
  uint64_t h = 0xcbf29ce484222325ull;
  // One murmur3 finalizer step per word (a gate packs into one word).
  auto mix = [&h](uint64_t v) { h = fmix64(h ^ v); };
  mix(chain.size());
  for (const Circuit& link : chain) {
    // Hash the view the endpoints will walk: the slotted scheduled view
    // when the scheduling pass is on (a walked link is its own view; a
    // compiled one's cache is shared with the garbler/evaluator, so
    // this triggers no extra scheduling work).
    std::shared_ptr<const Circuit> sched;
    const Circuit& c = scheduled ? *(sched = link.gc_scheduled()) : link;
    mix(c.num_wires);
    mix(c.gates.size());
    mix(c.garbler_inputs.size());
    mix(c.evaluator_inputs.size());
    mix(c.state_inputs.size());
    mix(c.outputs.size());
    for (const Gate& g : c.gates)
      mix((uint64_t(g.a) << 32) ^ g.b ^ (uint64_t(g.out) << 16) ^
          (uint64_t(static_cast<uint8_t>(g.op)) << 62));
    for (Wire wire : c.outputs) mix(wire);
  }
  return h;
}

uint64_t material_stream_bytes(const std::vector<Circuit>& chain) {
  uint64_t bytes = 0;
  for (const Circuit& c : chain)
    bytes += 2 * sizeof(Block) + c.stats().table_bytes();
  return bytes;
}

GarbledMaterial garble_offline(const std::vector<Circuit>& chain, Block seed,
                               const GcOptions& opt) {
  if (chain.empty())
    throw std::invalid_argument("garble_offline: empty circuit chain");
  GcOptions local = opt;
  local.framed_tables = false;
  // The sink records bytes — borrowed slices would be copied right back
  // into it, so the zero-copy plane buys nothing here.
  local.table_pool = nullptr;

  ByteSink sink;
  // Exact size up front: doubling growth would copy ~1.2x the artifact
  // and briefly hold 1.5x it.
  sink.bytes.reserve(material_stream_bytes(chain));
  Garbler garbler(sink, seed, local);

  GarbledMaterial mat;
  mat.fingerprint = chain_fingerprint(chain, local.schedule);
  mat.delta = garbler.delta();

  Labels carried;
  for (size_t k = 0; k < chain.size(); ++k) {
    const Circuit& c = chain[k];
    Labels g_zeros;
    if (k == 0) {
      g_zeros = garbler.fresh_zeros(c.garbler_inputs.size());
      mat.data_zeros = g_zeros;
    } else {
      if (carried.size() != c.garbler_inputs.size())
        throw std::invalid_argument("garble_offline: layer width mismatch");
      g_zeros = carried;
    }
    const Labels e_zeros =
        garbler.fresh_known_zeros(c.evaluator_inputs.size());
    mat.eval_zeros.insert(mat.eval_zeros.end(), e_zeros.begin(),
                          e_zeros.end());
    carried = garbler.garble(c, g_zeros, e_zeros, {});
  }

  mat.decode_bits.resize(carried.size());
  for (size_t i = 0; i < carried.size(); ++i)
    mat.decode_bits[i] = carried[i].lsb() ? 1u : 0u;
  mat.tables = std::move(sink.bytes);
  return mat;
}

Labels evaluate_material(const std::vector<Circuit>& chain,
                         const EvalMaterial& mat,
                         const Labels& garbler_labels, const GcOptions& opt) {
  if (chain.empty())
    throw std::invalid_argument("evaluate_material: empty circuit chain");
  size_t want = 0;
  for (const Circuit& c : chain) want += c.evaluator_inputs.size();
  if (mat.eval_labels.size() != want)
    throw std::invalid_argument(
        "evaluate_material: evaluator label count mismatch");

  GcOptions local = opt;
  local.framed_tables = false;

  ByteSource source(mat.tables);
  Evaluator evaluator(source, local);

  size_t consumed = 0;
  Labels carried;
  for (size_t k = 0; k < chain.size(); ++k) {
    const Circuit& c = chain[k];
    const size_t n_e = c.evaluator_inputs.size();
    const Labels e_labels(
        mat.eval_labels.begin() + static_cast<ptrdiff_t>(consumed),
        mat.eval_labels.begin() + static_cast<ptrdiff_t>(consumed + n_e));
    consumed += n_e;
    const Labels& g_labels = k == 0 ? garbler_labels : carried;
    carried = evaluator.evaluate(c, g_labels, e_labels, {});
  }
  if (source.consumed() != mat.tables.size())
    throw std::runtime_error("evaluate_material: trailing table bytes");
  return carried;
}

BitVec decode_labels(const Labels& active, const BitVec& decode_bits) {
  if (decode_bits.size() != active.size())
    throw std::invalid_argument("decode_labels: decode bit count mismatch");
  BitVec out(active.size());
  for (size_t i = 0; i < active.size(); ++i)
    out[i] = (active[i].lsb() ? 1u : 0u) ^ decode_bits[i];
  return out;
}

void send_material(Channel& ch, GarbledMaterial&& mat) {
  ch.send_bits(mat.decode_bits);
  ch.send_u64(mat.tables.size());
  if (mat.tables.empty()) return;
  // Donate the table stream: the bytes move into a refcounted holder
  // and ship as ONE borrowed slice — a scatter-gather transport sends
  // the multi-MB payload without copying it, and the holder frees when
  // the send completes. Wire bytes are those of a plain send_bytes.
  IoSlice slice;
  slice.ref = BufferRef::adopt(std::move(mat.tables));
  slice.data = slice.ref.data();
  slice.len = slice.ref.size();
  ch.send_iov(&slice, 1);
}

EvalMaterial recv_material(Channel& ch, uint64_t max_table_bytes,
                           uint64_t max_decode_bits) {
  EvalMaterial mat;
  mat.decode_bits = ch.recv_bits_bounded(max_decode_bits);
  const uint64_t len = ch.recv_u64();
  if (len > max_table_bytes)
    throw std::runtime_error("recv_material: oversized table stream");
  mat.tables.resize(len);
  if (len > 0) ch.recv_bytes(mat.tables.data(), len);
  return mat;
}

}  // namespace deepsecure
