// AES-128 with expanded-key encryption only — everything the garbling
// engine needs. Batch encryption is a runtime-dispatched backend
// (crypto/hash_backend.h): scalar S-box reference, bitsliced constant-
// time software, 8-wide AES-NI, 16-wide VAES/AVX-512 — all compiled
// when the toolchain allows, selected via CPUID (+ test/bench
// overrides), all producing identical bytes.
// The fixed-key garbling hash (Bellare et al., S&P'13) lives here too:
//   H(X, T) = pi(K) ^ K  with  K = 2X ^ T, pi = AES-128 under a fixed key.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/block.h"

namespace deepsecure {

/// Expanded AES-128 key schedule (11 round keys).
struct Aes128Key {
  std::array<Block, 11> rounds{};
};

/// Expand a 128-bit cipher key.
Aes128Key aes128_expand(Block key);

/// Encrypt one block (backend chosen at runtime).
Block aes128_encrypt(const Aes128Key& key, Block pt);

/// Encrypt `n` blocks in place through the active hash backend
/// (hash_backend() in crypto/hash_backend.h) — wide-SIMD pipelined when
/// the host supports it, bitsliced software otherwise.
void aes128_encrypt_batch(const Aes128Key& key, Block* blocks, size_t n);

/// True when the AES-NI backend is compiled in and the CPU supports it.
bool aes128_ni_available();

/// Restrict to software backends (for tests that cross-check hardware
/// vs software paths). Also re-runs the hash-backend selection so
/// AES-NI/VAES backends become unavailable while forced.
void aes128_force_software(bool force);

/// The process-wide fixed garbling key (Bellare-Hoang-Keelveedhi-Rogaway
/// style fixed-key cipher). Deterministic across runs by design: security
/// rests on the random wire labels, not on this key being secret.
const Aes128Key& fixed_garbling_key();

/// Tweakable circular-correlation-robust hash used by half-gates:
///   H(X, tweak) = AES_fixed(2X ^ T) ^ (2X ^ T),  T = tweak (as block)
Block gc_hash(Block x, uint64_t tweak);

/// Two-input variant used by the evaluator-side half gate.
Block gc_hash2(Block x, Block y, uint64_t tweak);

/// Batched fixed-key hash: out[i] = H(inputs[i], tweaks[i]). Routed
/// through aes128_encrypt_batch so the AES-NI pipeline (and the software
/// fallback) apply; `inputs` may alias `out`.
void gc_hash_batch(const Block* inputs, const uint64_t* tweaks, Block* out,
                   size_t n);

/// Garbler-side batch helper for half-gates AND windows. For gate i with
/// input zero-labels a0[i], b0[i] and tweaks tweaks[2i] (generator half),
/// tweaks[2i+1] (evaluator half), writes the four hashes the half-gates
/// construction consumes:
///   out[4i+0] = H(a0[i],         tweaks[2i])
///   out[4i+1] = H(a0[i] ^ delta, tweaks[2i])
///   out[4i+2] = H(b0[i],         tweaks[2i+1])
///   out[4i+3] = H(b0[i] ^ delta, tweaks[2i+1])
/// The ^delta halves reuse 2(X^delta) = 2X ^ 2delta, so only 2n doublings
/// are computed for the 4n hash inputs.
void gc_hash_and_quads(const Block* a0, const Block* b0, Block delta,
                       const uint64_t* tweaks, Block* out, size_t n);

namespace detail {
// Backend entry points (exposed for cross-checking in tests; production
// code goes through the dispatch in crypto/hash_backend.h).
Block aes128_encrypt_soft(const Aes128Key& key, Block pt);
void aes128_encrypt_batch_soft(const Aes128Key& key, Block* blocks, size_t n);
// Bitsliced constant-time software AES (aes128_bitsliced.cpp): always
// compiled, no ISA requirement.
void aes128_encrypt_batch_bitsliced(const Aes128Key& key, Block* blocks,
                                    size_t n);
// True while aes128_force_software(true) is in effect.
bool aes128_software_forced();
#if defined(DEEPSECURE_AESNI_COMPILED)
Block aes128_encrypt_ni(const Aes128Key& key, Block pt);
void aes128_encrypt_batch_ni(const Aes128Key& key, Block* blocks, size_t n);
#endif
#if defined(DEEPSECURE_VAES_COMPILED)
void aes128_encrypt_batch_vaes(const Aes128Key& key, Block* blocks, size_t n);
#endif
}  // namespace detail

}  // namespace deepsecure
