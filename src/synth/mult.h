// Signed multiplier blocks with the fixed-point truncation window.
//
// The paper's enhanced matrix-vector multiplication supports signed
// operands (vs. TinyGarble's unsigned realization). Products are
// accumulated modulo 2^(n+frac): mult_wide returns all n+frac bits (a
// dot product sums these and truncates once, synth/matvec.h), and
// mult_fixed the window [frac, frac+n), which matches `Fixed::operator*`
// exactly. The structure is
// chosen once, from what the evaluator knows (`Builder::known`):
//
//   * y known (every bit an evaluator input or an XOR of them: a
//     weight): radix-4 Booth. The digits of y are recoded in-circuit
//     with free XORs of known wires, so they stay known and every AND
//     that reads them ships one row (GateOp::kAndKnown). Half as many
//     partial-product rows need under half the adder ANDs: 423 ANDs,
//     275 of them one-row, at 16 bits (12 fractional) instead of the
//     array's 584 (262). The evaluator's inputs are the 16 weight bits
//     as before; no digit is sent or OT'd. The x-only -a it needs is
//     shared by CSE across every weight multiplying the same x.
//   * y garbled or constant: the two's-complement array multiplier. A
//     constant y folds its zero partial products away, so sparse
//     constants (power-of-two slopes etc.) stay cheap.
#pragma once

#include "synth/int_blocks.h"

namespace deepsecure::synth {

/// Full product: n-bit a, y -> a*y mod 2^(n+frac), n+frac bits.
Bus mult_wide(Builder& b, const Bus& a, const Bus& y, size_t frac);

/// Fixed-point multiply: n-bit a, y -> n-bit (a*y) >> frac, the window
/// [frac, frac+n) of mult_wide.
Bus mult_fixed(Builder& b, const Bus& a, const Bus& y, size_t frac);

/// Integer multiply returning the low n bits (frac = 0 window).
inline Bus mult_low(Builder& b, const Bus& a, const Bus& y) {
  return mult_fixed(b, a, y, 0);
}

/// Multiply by a public constant; the builder folds away zero partial
/// products, so sparse constants (power-of-two slopes etc.) are cheap.
Bus mult_const_fixed(Builder& b, const Bus& a, double c, FixedFormat fmt);

}  // namespace deepsecure::synth
