// Fixed-point number format used throughout the GC circuits.
//
// The paper evaluates with 16-bit numbers: 1 sign bit, 3 integer bits and
// b = 12 fractional bits (representational error <= 2^-13). The format is
// parameterizable so tests can sweep widths; Q(16,12) is the default used
// in every benchmark.
#pragma once

#include <cstdint>
#include <cstddef>

#include "support/bits.h"

namespace deepsecure {

struct FixedFormat {
  size_t total_bits = 16;  // including sign
  size_t frac_bits = 12;

  size_t int_bits() const { return total_bits - frac_bits - 1; }
  double resolution() const { return 1.0 / static_cast<double>(1ll << frac_bits); }
  /// Largest representable value.
  double max_value() const {
    return (static_cast<double>((1ll << (total_bits - 1)) - 1)) * resolution();
  }
  double min_value() const {
    return -static_cast<double>(1ll << (total_bits - 1)) * resolution();
  }
  bool operator==(const FixedFormat&) const = default;
};

inline constexpr FixedFormat kDefaultFormat{16, 12};

/// Two's-complement fixed-point value in a given format. Raw storage is
/// the sign-extended integer `round(x * 2^frac)`.
class Fixed {
 public:
  Fixed() = default;
  Fixed(int64_t raw, FixedFormat fmt) : raw_(raw), fmt_(fmt) {}

  /// Round-to-nearest conversion, saturating at format bounds.
  static Fixed from_double(double x, FixedFormat fmt = kDefaultFormat);
  /// Raw integer interpreted in the format (masked + sign-extended).
  static Fixed from_raw(int64_t raw, FixedFormat fmt = kDefaultFormat);

  double to_double() const;
  int64_t raw() const { return raw_; }
  FixedFormat format() const { return fmt_; }

  /// Little-endian two's-complement bits, fmt.total_bits wide.
  BitVec to_bits() const;
  static Fixed from_bits(const BitVec& bits, FixedFormat fmt = kDefaultFormat);

  // Arithmetic with wrap-around two's-complement semantics — exactly what
  // the circuits implement (no saturation inside the datapath).
  friend Fixed operator+(Fixed a, Fixed b);
  friend Fixed operator-(Fixed a, Fixed b);
  /// Multiply then truncate (arithmetic shift right by frac_bits) — the
  /// behaviour of the MULT circuit block.
  friend Fixed operator*(Fixed a, Fixed b);

  /// A sum of full products a.raw() * b.raw() (2*frac_bits fractional
  /// bits) truncated once: shifted right by frac_bits, then wrapped. A
  /// linear layer's neuron is from_product_sum(sum of x*w) + bias
  /// (accumulate-then-truncate); a * b == from_product_sum(a.raw() *
  /// b.raw()).
  static Fixed from_product_sum(int64_t sum, FixedFormat fmt = kDefaultFormat);

  bool operator==(const Fixed& o) const {
    return raw_ == o.raw_ && fmt_ == o.fmt_;
  }

 private:
  static int64_t wrap(int64_t v, FixedFormat fmt);

  int64_t raw_ = 0;
  FixedFormat fmt_ = kDefaultFormat;
};

/// Reference (double-precision) activation functions the circuit variants
/// are measured against in Table 3's error column.
double ref_tanh(double x);
double ref_sigmoid(double x);

/// CORDIC hyperbolic-mode reference model: computes sinh/cosh with the
/// iteration count used by the circuits (k iterations with 3i+1 repeats),
/// so the circuit can be tested bit-for-bit against software.
struct CordicResult {
  double sinh = 0.0;
  double cosh = 0.0;
};
CordicResult ref_cordic_sinh_cosh(double z, size_t iterations);

}  // namespace deepsecure
