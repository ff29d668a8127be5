#include "synth/mult.h"

#include <algorithm>
#include <stdexcept>

namespace deepsecure::synth {
namespace {

// Two's-complement array multiplier: with a, y sign-extended to width w,
//   a*y mod 2^w = sum_{i<n} y_i*(a << i)  +  y_{n-1}*((-a) << n) mod 2^w
// because the sign-extension rows i >= n collapse to -a*2^n.
Bus mult_array(Builder& b, const Bus& a, const Bus& y, size_t frac) {
  const size_t n = a.size();
  const size_t w = n + frac;
  const Bus a_ext = sign_extend(a, w);
  const Bus neg_a = negate(b, a_ext);

  Bus acc = constant_bus(b, 0, w);
  bool acc_zero = true;
  auto accumulate = [&](const Bus& row) {
    // Skip rows the builder folded to all-zero (constant multiplier bits);
    // adding them would still emit carry logic.
    bool all_zero = true;
    for (Wire wr : row) all_zero = all_zero && (wr == kConst0);
    if (all_zero) return;
    if (acc_zero) {
      acc = row;
      acc_zero = false;
    } else {
      acc = add(b, acc, row);
    }
  };

  for (size_t i = 0; i < n && i < w; ++i) {
    // Partial product y_i * (a_ext << i): bits below i are zero.
    Bus row(w, b.const_bit(false));
    for (size_t j = i; j < w; ++j) row[j] = b.and_(y[i], a_ext[j - i]);
    accumulate(row);
  }
  if (n < w) {
    Bus row(w, b.const_bit(false));
    for (size_t j = n; j < w; ++j) row[j] = b.and_(y[n - 1], neg_a[j - n]);
    accumulate(row);
  }
  return acc;
}

// |d| * s over `width` bits for a Booth digit d, given the known flags
// one = (|d| == 1) and two = (|d| == 2): bit j is s_j, s_{j-1} or 0,
// computed as mux(one, s_j, s_{j-1} & two). Both ANDs have a known
// operand, so both ship one row. Bits past the top of s repeat the
// same gates, which CSE emits once.
Bus booth_magnitude(Builder& b, const Bus& s, Wire one, Wire two,
                    size_t width) {
  Bus row(width);
  for (size_t j = 0; j < width; ++j) {
    const Wire lower = j == 0 ? kConst0 : b.and_(s[j - 1], two);
    row[j] = b.mux(one, s[j], lower);
  }
  return row;
}

// Radix-4 Booth multiplier for a known y: y = sum_k d_k * 4^k with
// digits d_k = -2*y_{2k+1} + y_{2k} + y_{2k-1} in {-2..2} (y_{-1} = 0,
// y sign-extended to an even width), so 8 rows of partial products
// instead of 16 at n = 16. The digit flags are XORs of known wires and
// stay known. Row k >= 1 is |d_k| * a, inverted by its sign and added on
// [2k, w) with carry-in the sign (the two's-complement +1). Row 0 has no
// add to carry its +1, so it starts from a or -a, chosen by its sign.
Bus mult_booth(Builder& b, const Bus& a, const Bus& y, size_t frac) {
  const size_t n = a.size();
  const size_t w = n + frac;
  const Bus ye = sign_extend(y, n + (n & 1));
  const Bus a_ext = sign_extend(a, w);
  // -a at n + 1 bits is exact (also for a = -2^(n-1)). It depends on a
  // only, so CSE shares it across every weight that multiplies a.
  Bus neg_a = negate(b, sign_extend(a, n + 1));
  neg_a = w > n ? sign_extend(neg_a, w) : truncate(neg_a, w);

  Bus acc;
  for (size_t k = 0; 2 * k < std::min(ye.size(), w); ++k) {
    const Wire lo = k == 0 ? kConst0 : ye[2 * k - 1];
    const Wire neg = ye[2 * k + 1];
    const Wire one = b.xor_(ye[2 * k], lo);
    const Wire two = b.xor_(neg, ye[2 * k]);
    if (k == 0) {
      Bus s(w);
      for (size_t j = 0; j < w; ++j) s[j] = b.mux(neg, neg_a[j], a_ext[j]);
      acc = booth_magnitude(b, s, one, two, w);
      continue;
    }
    const size_t lsb = 2 * k;
    Bus row = booth_magnitude(b, a_ext, one, two, w - lsb);
    for (Wire& r : row) r = b.xor_(r, neg);
    const Bus hi(acc.begin() + static_cast<ptrdiff_t>(lsb), acc.end());
    const Bus sum = add_full(b, hi, row, neg);
    std::copy(sum.begin(), sum.end(),
              acc.begin() + static_cast<ptrdiff_t>(lsb));
  }
  return acc;
}

}  // namespace

Bus mult_wide(Builder& b, const Bus& a, const Bus& y, size_t frac) {
  if (a.size() != y.size())
    throw std::invalid_argument("mult width mismatch");
  const bool y_known = std::all_of(y.begin(), y.end(),
                                   [&](Wire wr) { return b.known(wr); });
  return y_known ? mult_booth(b, a, y, frac) : mult_array(b, a, y, frac);
}

Bus mult_fixed(Builder& b, const Bus& a, const Bus& y, size_t frac) {
  return slice(mult_wide(b, a, y, frac), frac, a.size());
}

Bus mult_const_fixed(Builder& b, const Bus& a, double c, FixedFormat fmt) {
  const Bus cb = constant_fixed(b, c, fmt);
  return mult_fixed(b, a, cb, fmt.frac_bits);
}

}  // namespace deepsecure::synth
