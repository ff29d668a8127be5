// IKNP oblivious-transfer extension with one-block correlated OT,
// semi-honest.
//
// Roles are reversed in setup: the extension *sender* is a base-OT
// *receiver* with kappa secret choice bits s, obtaining one of each
// column-seed pair. For every batch of m OTs (r = packed choice bits):
//   receiver: t_i = PRG(k_i^0), u_i = t_i ^ PRG(k_i^1) ^ r  -> send u
//   sender:   q_i = PRG(k_i^{s_i}) ^ s_i * u_i
//   rows:     q_j = t_j ^ r_j * s
//   sender:   L0_j = clr(H(q_j, j)), c_j = L0_j ^ H(q_j ^ s, j) ^ delta
//   receiver: r_j ? H(t_j, j) ^ c_j : clr(H(t_j, j))
// The vector arithmetic OT (Gilboa's OT multiplication, one vector of
// 32-bit correlations per OT) reuses the same rows under its own hash
// domain. Word w of OT j is word w%4 of a hash under tweak t_{j,w/4}:
//   sender:   p = H(q_j, t)[w%4], u = H(q_j ^ s, t)[w%4] - p - d_{j,w}
//   receiver: r_j ? H(t_j, t)[w%4] - u : H(t_j, t)[w%4]
// so the receiver learns p + r_j * d_{j,w} (mod 2^32).
// Columns are ceil(m/8) packed bytes filled by the stateful AES-CTR
// column PRGs, so repeated batches (per-layer label transfers) reuse the
// single setup. Both sides transpose their 128 columns into m row blocks
// with an SSE2 tile kernel and hash the rows in batched sweeps.
#include "gc/ot.h"

#include <emmintrin.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/aes128.h"

namespace deepsecure {
namespace {

// Domain-separated hashes for OT messages (distinct from garbling
// tweaks): labels of the correlated OT, pads of the arithmetic OT.
constexpr Block kOtDomain{0x6f742d657874656eull, 0x646565707365632dull};
constexpr Block kArithDomain{0x6f742d6172697468ull, 0x646565707365632dull};
// Seeds of a reverse extension (setup_reverse), hashed from labels.
constexpr Block kSeedDomain{0x6f742d7365656473ull, 0x646565707365632dull};

constexpr size_t kTileOts = 128;      // one tile: 16 bytes of every column
constexpr size_t kHashChunk = 1024;   // rows hashed per sweep

size_t column_stride(size_t m) { return (m + 7) / 8; }

// 16x16 byte transpose in registers (byte b of r[k] -> byte k of r[b]).
// Interleaving r[p] with r[p+8] rotates the 8-bit (row, byte) index left
// by one; four rounds rotate it by four, which swaps row and byte.
inline void transpose_bytes16(__m128i r[16]) {
  for (int round = 0; round < 4; ++round) {
    __m128i t[16];
    for (int p = 0; p < 8; ++p) {
      t[2 * p] = _mm_unpacklo_epi8(r[p], r[p + 8]);
      t[2 * p + 1] = _mm_unpackhi_epi8(r[p], r[p + 8]);
    }
    for (int k = 0; k < 16; ++k) r[k] = t[k];
  }
}

// One tile: bytes [0, 16) of each of the 128 columns (128 OTs) into 128
// rows of 16 bytes. Per group of 16 columns, vector b holds byte b of
// each column; movemask collects one bit position across the 16 columns
// (16 bits of one row), and a left shift brings up the next position.
void transpose_tile(const uint8_t* cols, size_t stride, uint8_t* rows) {
  for (size_t g = 0; g < kOtExtKappa / 16; ++g) {
    __m128i r[16];
    for (size_t k = 0; k < 16; ++k)
      r[k] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cols + (16 * g + k) * stride));
    transpose_bytes16(r);
    for (size_t b = 0; b < 16; ++b) {
      __m128i v = r[b];
      for (int bit = 7; bit >= 0; --bit) {
        const auto mask = static_cast<uint16_t>(_mm_movemask_epi8(v));
        std::memcpy(rows + (8 * b + static_cast<size_t>(bit)) * 16 + 2 * g,
                    &mask, sizeof(mask));
        v = _mm_slli_epi64(v, 1);
      }
    }
  }
}

// Checks a vector batch's offsets against its word count; returns m.
size_t vector_batch_size(const std::vector<uint32_t>& offset, size_t words) {
  if (offset.empty() || offset.front() != 0 || offset.back() != words)
    throw std::invalid_argument("OT ext: vector offsets do not span words");
  for (size_t j = 1; j < offset.size(); ++j)
    if (offset[j] < offset[j - 1])
      throw std::invalid_argument("OT ext: vector offsets decrease");
  return offset.size() - 1;
}

// The hashes of a vector batch, in chunks of at most kHashChunk: per
// OT j, one hash of row j (domain-separated) per 4 of its words, each
// under the next tweak. hash(x, tweaks, n) hashes a chunk into the
// caller's buffer of chunk_hashes(offset) entries; take(h, word, count)
// then consumes hash h of the chunk, which covers words [word, word +
// count).
size_t chunk_hashes(const std::vector<uint32_t>& offset) {
  size_t hashes = 0;
  for (size_t j = 0; j + 1 < offset.size() && hashes < kHashChunk; ++j)
    hashes += (offset[j + 1] - offset[j] + 3) / 4;
  return std::min(hashes, kHashChunk);
}

template <typename Hash, typename Take>
void vector_hashes(std::vector<Block>& rows,
                   const std::vector<uint32_t>& offset, uint64_t& index,
                   Hash hash, Take take) {
  const size_t chunk = chunk_hashes(offset);
  std::vector<Block> x(chunk);
  std::vector<uint64_t> tweaks(chunk);
  std::vector<uint32_t> word(chunk), count(chunk);
  size_t n = 0;
  const auto sweep = [&] {
    hash(x.data(), tweaks.data(), n);
    for (size_t h = 0; h < n; ++h) take(h, word[h], count[h]);
    n = 0;
  };
  for (size_t j = 0; j + 1 < offset.size(); ++j) {
    rows[j] ^= kArithDomain;
    for (uint32_t w = offset[j]; w < offset[j + 1]; w += 4) {
      x[n] = rows[j];
      tweaks[n] = index++;
      word[n] = w;
      count[n] = std::min<uint32_t>(offset[j + 1] - w, 4);
      if (++n == chunk) sweep();
    }
  }
  if (n > 0) sweep();
}

}  // namespace

std::vector<Block> transpose_columns(const uint8_t* cols, size_t stride,
                                     size_t m) {
  std::vector<Block> rows(m);
  auto* out = reinterpret_cast<uint8_t*>(rows.data());
  const size_t full = m / kTileOts;
  for (size_t t = 0; t < full; ++t)
    transpose_tile(cols + 16 * t, stride, out + kTileOts * 16 * t);
  const size_t rest = m - full * kTileOts;
  if (rest > 0) {
    // The last partial tile goes through a zero-padded local copy, so
    // neither the columns nor the rows need tile padding.
    alignas(16) uint8_t in[kOtExtKappa * 16] = {};
    alignas(16) uint8_t tile[kTileOts * 16];
    const size_t n = column_stride(rest);
    for (size_t i = 0; i < kOtExtKappa; ++i)
      std::memcpy(in + 16 * i, cols + i * stride + 16 * full, n);
    transpose_tile(in, 16, tile);
    std::memcpy(out + kTileOts * 16 * full, tile, rest * 16);
  }
  return rows;
}

void OtExtSender::setup(Prg& prg) {
  BitVec s(kOtExtKappa);
  for (auto& bit : s) bit = prg.next_u64() & 1u;
  seed(s, base_ot_recv(ch_, s, prg));
}

void OtExtSender::seed(const BitVec& s, const std::vector<Block>& seeds) {
  s_ = kZeroBlock;
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    if (!s[i]) continue;
    if (i < 64)
      s_.lo |= 1ull << i;
    else
      s_.hi |= 1ull << (i - 64);
  }
  col_prg_.clear();
  for (const Block& seed : seeds)
    col_prg_.push_back(std::make_unique<Prg>(seed));
  ready_ = true;
}

void OtExtReceiver::setup(Prg& prg) {
  std::vector<std::pair<Block, Block>> seed_pairs(kOtExtKappa);
  for (auto& p : seed_pairs) {
    p.first = prg.next_block();
    p.second = prg.next_block();
  }
  base_ot_send(ch_, seed_pairs, prg);
  seed(seed_pairs);
}

void OtExtReceiver::seed(const std::vector<std::pair<Block, Block>>& seeds) {
  col_prg0_.clear();
  col_prg1_.clear();
  for (const auto& p : seeds) {
    col_prg0_.push_back(std::make_unique<Prg>(p.first));
    col_prg1_.push_back(std::make_unique<Prg>(p.second));
  }
  ready_ = true;
}

// A reverse extension's seeds: H(L0_i), H(L0_i ^ delta') on the side
// that chose delta', H(L_i) = the pair's s'_i-th on the other.
void OtExtReceiver::setup_reverse(OtExtSender& forward, Prg& prg) {
  Block delta = prg.next_block();
  delta.lo |= 1;
  std::vector<Block> x = forward.send_correlated(kOtExtKappa, delta);
  x.resize(2 * kOtExtKappa);
  std::vector<uint64_t> tweaks(2 * kOtExtKappa);
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    x[kOtExtKappa + i] = x[i] ^ delta ^ kSeedDomain;
    x[i] ^= kSeedDomain;
    tweaks[i] = tweaks[kOtExtKappa + i] = i;
  }
  gc_hash_batch(x.data(), tweaks.data(), x.data(), x.size());
  std::vector<std::pair<Block, Block>> seeds(kOtExtKappa);
  for (size_t i = 0; i < kOtExtKappa; ++i)
    seeds[i] = {x[i], x[kOtExtKappa + i]};
  seed(seeds);
}

void OtExtSender::setup_reverse(OtExtReceiver& forward, Prg& prg) {
  BitVec s(kOtExtKappa);
  for (auto& bit : s) bit = prg.next_u64() & 1u;
  std::vector<Block> x = forward.recv_correlated(s);
  std::vector<uint64_t> tweaks(kOtExtKappa);
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    x[i] ^= kSeedDomain;
    tweaks[i] = i;
  }
  gc_hash_batch(x.data(), tweaks.data(), x.data(), x.size());
  seed(s, x);
}

std::vector<Block> OtExtSender::extend(size_t m) {
  // The leading batch size guards against a sender/receiver m
  // disagreement — the raw packed read would otherwise desynchronize
  // the stream silently.
  if (ch_.recv_u64() != m)
    throw std::runtime_error("OT ext: batch size mismatch");
  const size_t stride = column_stride(m);
  std::vector<uint8_t> q(kOtExtKappa * stride);  // u columns, then q
  ch_.recv_bytes(q.data(), q.size());
  std::vector<uint8_t> g(stride);
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    uint8_t* col = q.data() + i * stride;
    const bool s_i = ((i < 64 ? s_.lo >> i : s_.hi >> (i - 64)) & 1u) != 0;
    if (!s_i) {
      col_prg_[i]->fill_bytes(col, stride);
      continue;
    }
    col_prg_[i]->fill_bytes(g.data(), stride);
    for (size_t k = 0; k < stride; ++k) col[k] ^= g[k];
  }
  return transpose_columns(q.data(), stride, m);
}

std::vector<Block> OtExtReceiver::extend(const BitVec& choices) {
  const size_t m = choices.size();
  const size_t stride = column_stride(m);
  std::vector<uint8_t> r(stride, 0);
  for (size_t j = 0; j < m; ++j)
    r[j / 8] |= static_cast<uint8_t>((choices[j] & 1u) << (j % 8));
  std::vector<uint8_t> t(kOtExtKappa * stride), u(kOtExtKappa * stride);
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    uint8_t* ti = t.data() + i * stride;
    uint8_t* ui = u.data() + i * stride;
    col_prg0_[i]->fill_bytes(ti, stride);
    col_prg1_[i]->fill_bytes(ui, stride);
    for (size_t k = 0; k < stride; ++k) ui[k] ^= ti[k] ^ r[k];
  }
  ch_.send_u64(m);
  ch_.send_bytes(u.data(), u.size());
  return transpose_columns(t.data(), stride, m);
}

std::vector<Block> OtExtSender::send_correlated(size_t m, Block delta) {
  if (!ready_) throw std::logic_error("OtExtSender: setup() not run");
  if (m == 0) return {};
  // rows[j] = q_j; each hashed window is overwritten with its c_j.
  std::vector<Block> rows = extend(m);
  std::vector<Block> zeros(m);
  const size_t chunk = std::min(m, kHashChunk);
  std::vector<uint64_t> tweaks(chunk);
  std::vector<Block> h(2 * chunk);
  for (size_t j0 = 0; j0 < m; j0 += chunk) {
    const size_t n = std::min(chunk, m - j0);
    Block* x = rows.data() + j0;
    for (size_t j = 0; j < n; ++j) {
      x[j] ^= kOtDomain;
      tweaks[j] = hash_index_++;
    }
    gc_hash_pairs(x, s_, tweaks.data(), h.data(), n);
    for (size_t j = 0; j < n; ++j) {
      Block l0 = h[2 * j];
      l0.lo &= ~uint64_t{1};
      zeros[j0 + j] = l0;
      x[j] = l0 ^ h[2 * j + 1] ^ delta;
    }
  }
  ch_.send_bytes(rows.data(), m * sizeof(Block));
  return zeros;
}

std::vector<Block> OtExtReceiver::recv_correlated(const BitVec& choices) {
  if (!ready_) throw std::logic_error("OtExtReceiver: setup() not run");
  const size_t m = choices.size();
  if (m == 0) return {};
  // labels[j] = H(t_j) until the sender's c_j arrive.
  std::vector<Block> labels = extend(choices);
  const size_t chunk = std::min(m, kHashChunk);
  std::vector<uint64_t> tweaks(chunk);
  for (size_t j0 = 0; j0 < m; j0 += chunk) {
    const size_t n = std::min(chunk, m - j0);
    Block* x = labels.data() + j0;
    for (size_t j = 0; j < n; ++j) {
      x[j] ^= kOtDomain;
      tweaks[j] = hash_index_++;
    }
    gc_hash_batch(x, tweaks.data(), x, n);
  }
  std::vector<Block> c(m);
  ch_.recv_bytes(c.data(), m * sizeof(Block));
  for (size_t j = 0; j < m; ++j) {
    if (choices[j] & 1u)
      labels[j] ^= c[j];
    else
      labels[j].lo &= ~uint64_t{1};
  }
  otstat::transfers().add(m);
  otstat::bytes().add(8 + kOtExtKappa * column_stride(m) + m * sizeof(Block));
  return labels;
}

std::vector<uint32_t> OtExtSender::send_vector(
    const std::vector<uint32_t>& offset, const std::vector<uint32_t>& delta) {
  if (!ready_) throw std::logic_error("OtExtSender: setup() not run");
  const size_t m = vector_batch_size(offset, delta.size());
  if (m == 0) return {};
  std::vector<Block> rows = extend(m);
  std::vector<uint32_t> pads(delta.size()), u(delta.size());
  std::vector<Block> h(2 * chunk_hashes(offset));
  vector_hashes(
      rows, offset, hash_index_,
      [&](const Block* x, const uint64_t* tweaks, size_t n) {
        gc_hash_pairs(x, s_, tweaks, h.data(), n);
      },
      [&](size_t i, uint32_t w, uint32_t count) {
        uint32_t p0[4], p1[4];
        std::memcpy(p0, &h[2 * i], sizeof(p0));
        std::memcpy(p1, &h[2 * i + 1], sizeof(p1));
        for (uint32_t t = 0; t < count; ++t) {
          pads[w + t] = p0[t];
          u[w + t] = p1[t] - p0[t] - delta[w + t];
        }
      });
  ch_.send_bytes(u.data(), u.size() * sizeof(uint32_t));
  return pads;
}

std::vector<uint32_t> OtExtReceiver::recv_vector(
    const BitVec& choices, const std::vector<uint32_t>& offset) {
  if (!ready_) throw std::logic_error("OtExtReceiver: setup() not run");
  const size_t words = offset.empty() ? 0 : offset.back();
  const size_t m = vector_batch_size(offset, words);
  if (choices.size() != m)
    throw std::invalid_argument("OT ext: one choice bit per vector OT");
  if (m == 0) return {};
  std::vector<Block> rows = extend(choices);
  std::vector<uint32_t> out(words);
  std::vector<Block> h(chunk_hashes(offset));
  vector_hashes(
      rows, offset, hash_index_,
      [&](const Block* x, const uint64_t* tweaks, size_t n) {
        gc_hash_batch(x, tweaks, h.data(), n);
      },
      [&](size_t i, uint32_t w, uint32_t count) {
        std::memcpy(out.data() + w, &h[i], count * sizeof(uint32_t));
      });
  std::vector<uint32_t> u(words);
  ch_.recv_bytes(u.data(), u.size() * sizeof(uint32_t));
  for (size_t j = 0; j < m; ++j)
    if (choices[j] & 1u)
      for (uint32_t w = offset[j]; w < offset[j + 1]; ++w) out[w] -= u[w];
  otstat::transfers().add(m);
  otstat::bytes().add(vector_ot_bytes(m, words));
  return out;
}

}  // namespace deepsecure
