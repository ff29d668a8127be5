// Hyperbolic-mode CORDIC realization of Tanh and Sigmoid (Table 1 maps
// Softmax/Sigmoid/Tanh onto CORDIC; Table 3 reports TanhCORDIC /
// SigmoidCORDIC).
//
// We use the rotation-mode exponential form: tracking u = x + y under the
// hyperbolic micro-rotations gives u <- u * (1 + d_i 2^-i), and
// prod_i (1 + d_i 2^-i) = K * e^z with the data-independent gain
// K = prod_i sqrt(1 - 2^-2i); seeding u_0 = 1/K yields e^z with one adder
// per iteration instead of the classic three. Iterations follow the
// paper's schedule: i = 1..iterations with the 3i+1 repetition rule
// (i = 4, 13, 40 executed twice — 14 executed iterations at 12-bit
// precision, matching Section 4.2).
//
// CORDIC converges only for |z| <= ~1.12, so the argument is first
// range-reduced with base-2 arithmetic:
//   e^-a = 2^-k * e^-r,  k = floor(a / ln 2),  r = a - k ln 2 in [0, ln 2)
// The 2^-k is a barrel shift — cheap in GC.
//
//   tanh(x)    = (1 - e^(-2|x|)) / (1 + e^(-2|x|)), sign-reflected
//   sigmoid(x) = 1 / (1 + e^(-|x|)),                reflected as 1 - y
//
// Both quotients are taken in Q(2.13) at 16 bits. Their operands obey
// 0 < num <= den < 2^14, so the unsigned non-restoring div_fraction
// computes them exactly in 14 quotient bits (1,225 / 1,150 non-XOR per
// activation). The generic signed div_fixed would spend ~1.8k non-XOR
// on the same quotient at 29 bits.
#pragma once

#include "synth/int_blocks.h"

namespace deepsecure::synth {

struct CordicParams {
  size_t iterations = 12;     // positive iterations ~ output bit precision
  size_t internal_frac = 18;  // accumulator fractional bits
};

/// e^(-a) for an unsigned bus `a` (value in [0, max_a], `a_frac`
/// fractional bits). Returns an unsigned bus with params.internal_frac
/// fractional bits; the value is in (0, 1].
Bus cordic_exp_neg(Builder& b, const Bus& a, size_t a_frac, double max_a,
                   const CordicParams& params = {});

Bus tanh_cordic(Builder& b, const Bus& x, FixedFormat fmt,
                const CordicParams& params = {});
Bus sigmoid_cordic(Builder& b, const Bus& x, FixedFormat fmt,
                   const CordicParams& params = {});

/// Double-precision model of the same schedule (tests compare the
/// circuit against this to separate algorithmic from rounding error).
double ref_cordic_exp_neg(double a, const CordicParams& params);

}  // namespace deepsecure::synth
