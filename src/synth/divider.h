// Dividers. div_unsigned/div_signed/div_fixed are the generic signed
// restoring divider: the DIV entry of Table 3 and the gate-count
// ledger's division cost. div_fraction is the range-exact divider the
// CORDIC Tanh and Sigmoid realizations use for their final
// (1 - u) / (1 + u) and 1 / (1 + u).
#pragma once

#include "synth/int_blocks.h"

namespace deepsecure::synth {

/// Unsigned integer division a / y, both n bits; returns the n-bit
/// quotient (y == 0 yields all-ones, the natural output of the array).
Bus div_unsigned(Builder& b, const Bus& a, const Bus& y);

/// Signed division with quotient truncated toward zero.
Bus div_signed(Builder& b, const Bus& a, const Bus& y);

/// Fixed-point division: (a << frac) / y with signs handled; widths are
/// managed internally so the pre-shift does not overflow.
Bus div_fixed(Builder& b, const Bus& a, const Bus& y, size_t frac);

/// Unsigned fraction division: floor((num << frac) / den) in `qbits`
/// bits, by non-restoring shift-subtract at the buses' width w (one
/// w-bit adder per quotient bit, no restoring mux).
///
/// Precondition, not checked by the circuit: 0 <= num <= den and
/// den > 0, both non-negative at width w (sign bit clear). The quotient
/// is then at most 2^frac, so qbits > frac keeps it exact. Outside the
/// precondition the output is unspecified.
Bus div_fraction(Builder& b, const Bus& num, const Bus& den, size_t frac,
                 size_t qbits);

}  // namespace deepsecure::synth
