#include "fixed/fixed_point.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace deepsecure {

int64_t Fixed::wrap(int64_t v, FixedFormat fmt) {
  const uint64_t masked = mask_bits(static_cast<uint64_t>(v), fmt.total_bits);
  return sign_extend(masked, fmt.total_bits);
}

Fixed Fixed::from_double(double x, FixedFormat fmt) {
  if (fmt.total_bits == 0 || fmt.total_bits > 62 ||
      fmt.frac_bits >= fmt.total_bits)
    throw std::invalid_argument("bad fixed-point format");
  const double scaled = x * static_cast<double>(1ll << fmt.frac_bits);
  const int64_t lo = -(1ll << (fmt.total_bits - 1));
  const int64_t hi = (1ll << (fmt.total_bits - 1)) - 1;
  double r = std::nearbyint(scaled);
  if (r < static_cast<double>(lo)) r = static_cast<double>(lo);
  if (r > static_cast<double>(hi)) r = static_cast<double>(hi);
  return Fixed(static_cast<int64_t>(r), fmt);
}

Fixed Fixed::from_raw(int64_t raw, FixedFormat fmt) {
  return Fixed(wrap(raw, fmt), fmt);
}

double Fixed::to_double() const {
  return static_cast<double>(raw_) /
         static_cast<double>(1ll << fmt_.frac_bits);
}

BitVec Fixed::to_bits() const {
  return deepsecure::to_bits(static_cast<uint64_t>(raw_), fmt_.total_bits);
}

Fixed Fixed::from_bits(const BitVec& bits, FixedFormat fmt) {
  if (bits.size() != fmt.total_bits)
    throw std::invalid_argument("bit width mismatch");
  return from_raw(sign_extend(deepsecure::from_bits(bits), fmt.total_bits),
                  fmt);
}

Fixed operator+(Fixed a, Fixed b) {
  if (!(a.fmt_ == b.fmt_)) throw std::invalid_argument("format mismatch");
  return Fixed(Fixed::wrap(a.raw_ + b.raw_, a.fmt_), a.fmt_);
}

Fixed operator-(Fixed a, Fixed b) {
  if (!(a.fmt_ == b.fmt_)) throw std::invalid_argument("format mismatch");
  return Fixed(Fixed::wrap(a.raw_ - b.raw_, a.fmt_), a.fmt_);
}

Fixed operator*(Fixed a, Fixed b) {
  if (!(a.fmt_ == b.fmt_)) throw std::invalid_argument("format mismatch");
  return Fixed::from_product_sum(a.raw_ * b.raw_, a.fmt_);
}

Fixed Fixed::from_product_sum(int64_t sum, FixedFormat fmt) {
  // Arithmetic truncation toward -inf (shift right), mirroring the
  // circuits' bit window [frac, frac + n).
  return Fixed(wrap(sum >> fmt.frac_bits, fmt), fmt);
}

double ref_tanh(double x) { return std::tanh(x); }
double ref_sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

CordicResult ref_cordic_sinh_cosh(double z, size_t iterations) {
  // Hyperbolic-mode rotation CORDIC. Iterations start at i = 1; iterations
  // of index 3i+1 (4, 13, 40, ...) are executed twice for convergence.
  // Gain K = prod(sqrt(1 - 2^-2i)) over executed iterations; we start from
  // (x, y) = (1/K, 0) so the result is (cosh z, sinh z).
  double x = 1.0, y = 0.0;
  double angle = z;

  // Pre-compute the executed iteration schedule.
  std::vector<size_t> schedule;
  size_t next_repeat = 4;
  for (size_t i = 1; i <= iterations; ++i) {
    schedule.push_back(i);
    if (i == next_repeat) {
      schedule.push_back(i);
      next_repeat = 3 * next_repeat + 1;
    }
  }

  double gain = 1.0;
  for (size_t i : schedule)
    gain *= std::sqrt(1.0 - std::pow(2.0, -2.0 * static_cast<double>(i)));
  x = 1.0 / gain * x;  // pre-scale so no post-multiply is needed

  for (size_t i : schedule) {
    const double e = std::pow(2.0, -static_cast<double>(i));
    const double atanh_e = 0.5 * std::log((1.0 + e) / (1.0 - e));
    const double d = angle >= 0.0 ? 1.0 : -1.0;
    const double nx = x + d * e * y;
    const double ny = y + d * e * x;
    angle -= d * atanh_e;
    x = nx;
    y = ny;
  }
  return CordicResult{y, x};
}

}  // namespace deepsecure
