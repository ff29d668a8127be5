// A Bus is an ordered little-endian collection of wires — the circuit-
// level representation of a fixed-point word.
#pragma once

#include <vector>

#include "circuit/builder.h"
#include "fixed/fixed_point.h"

namespace deepsecure::synth {

using Bus = std::vector<Wire>;

/// Wires carrying the constant little-endian value `v` (free: they are
/// the const0/const1 wires, folded away by the builder).
Bus constant_bus(Builder& b, uint64_t v, size_t n);

/// Constant bus holding round(x * 2^frac) in two's complement.
Bus constant_fixed(Builder& b, double x, FixedFormat fmt);

/// Private input buses.
Bus input_bus(Builder& b, Party p, size_t n);
inline Bus input_fixed(Builder& b, Party p, FixedFormat fmt) {
  return input_bus(b, p, fmt.total_bits);
}

// Width adjustments are free (rewiring only).
Bus sign_extend(const Bus& a, size_t n);
Bus zero_extend(Builder& b, const Bus& a, size_t n);
Bus truncate(const Bus& a, size_t n);
/// Bits [lo, lo + n) of `a`.
Bus slice(const Bus& a, size_t lo, size_t n);
/// Logical shift left by constant k (low bits filled with const0).
Bus shl_const(Builder& b, const Bus& a, size_t k);
/// Arithmetic shift right by constant k (sign-fill), width preserved.
Bus sar_const(const Bus& a, size_t k);

}  // namespace deepsecure::synth
