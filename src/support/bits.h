// Small bit-manipulation helpers shared across the code base.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

namespace deepsecure {

/// Dynamic vector of bits. Used for plaintext circuit values, OT choice
/// vectors and wire assignments. Intentionally a thin alias: the circuit
/// layer treats bits as `uint8_t` 0/1 for simplicity and debuggability.
using BitVec = std::vector<uint8_t>;

/// Decompose `v` into `n` little-endian bits.
inline BitVec to_bits(uint64_t v, size_t n) {
  BitVec out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>((v >> i) & 1u);
  return out;
}

/// Recompose little-endian bits into an unsigned integer.
inline uint64_t from_bits(const BitVec& bits) {
  uint64_t v = 0;
  for (size_t i = 0; i < bits.size() && i < 64; ++i)
    v |= static_cast<uint64_t>(bits[i] & 1u) << i;
  return v;
}

/// Sign-extend an `n`-bit two's-complement value held in a uint64_t.
inline int64_t sign_extend(uint64_t v, size_t n) {
  if (n == 0 || n >= 64) return static_cast<int64_t>(v);
  const uint64_t sign = 1ull << (n - 1);
  const uint64_t mask = (1ull << n) - 1;
  v &= mask;
  return static_cast<int64_t>((v ^ sign) - sign);
}

/// Mask `v` down to its low `n` bits.
inline uint64_t mask_bits(uint64_t v, size_t n) {
  if (n >= 64) return v;
  return v & ((1ull << n) - 1);
}

inline size_t ceil_div(size_t a, size_t b) { return (a + b - 1) / b; }

/// murmur3's 64-bit finalizer: a bijection on 64-bit words in which
/// every input bit reaches every output bit.
inline uint64_t fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// ceil(log2(n)) for n >= 1.
inline size_t clog2(size_t n) {
  size_t bits = 0;
  size_t v = 1;
  while (v < n) { v <<= 1; ++bits; }
  return bits;
}

}  // namespace deepsecure
