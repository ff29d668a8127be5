#include "synth/divider.h"

#include <stdexcept>

namespace deepsecure::synth {

Bus div_unsigned(Builder& b, const Bus& a, const Bus& y) {
  if (a.size() != y.size()) throw std::invalid_argument("div width mismatch");
  const size_t n = a.size();

  // Restoring division, remainder held at width n+1 so the trial
  // subtraction's borrow is the quotient-bit predicate.
  Bus rem = constant_bus(b, 0, n + 1);
  Bus yw = y;
  yw.push_back(b.const_bit(false));
  Bus q(n);
  for (size_t step = 0; step < n; ++step) {
    const size_t bit = n - 1 - step;
    // rem = (rem << 1) | a[bit]
    Bus shifted(n + 1);
    shifted[0] = a[bit];
    for (size_t i = 1; i <= n; ++i) shifted[i] = rem[i - 1];
    const Bus trial = sub(b, shifted, yw);
    const Wire borrow = sign_bit(trial);  // 1 iff shifted < y
    q[bit] = b.not_(borrow);
    rem = mux_bus(b, borrow, shifted, trial);
  }
  return q;
}

Bus div_signed(Builder& b, const Bus& a, const Bus& y) {
  const Bus ua = abs_signed(b, a);
  const Bus uy = abs_signed(b, y);
  const Bus uq = div_unsigned(b, ua, uy);
  const Wire neg = b.xor_(sign_bit(a), sign_bit(y));
  return mux_bus(b, neg, negate(b, uq), uq);
}

Bus div_fixed(Builder& b, const Bus& a, const Bus& y, size_t frac) {
  const size_t n = a.size();
  const size_t w = n + frac;
  // (a << frac) / y at width n+frac, then truncate back to n bits.
  Bus aw = sign_extend(a, w);
  aw = shl_const(b, aw, frac);
  const Bus yw = sign_extend(y, w);
  const Bus q = div_signed(b, aw, yw);
  return truncate(q, n);
}

Bus div_fraction(Builder& b, const Bus& num, const Bus& den, size_t frac,
                 size_t qbits) {
  if (num.size() != den.size())
    throw std::invalid_argument("div width mismatch");
  if (qbits <= frac) throw std::invalid_argument("div_fraction: qbits <= frac");
  const size_t w = den.size();

  // Long division of D = num << frac into qbits quotient bits: the
  // partial remainder starts at D >> qbits and takes one dividend bit
  // per step. Non-restoring: R stays in [-den, den), so it fits w signed
  // bits, and a negative R adds den back on the next step instead of
  // being restored by a mux.
  const size_t lead = qbits - frac;
  Bus r(w, b.const_bit(false));
  for (size_t i = 0; i + lead < w; ++i) r[i] = num[i + lead];
  Bus q(qbits);
  for (size_t step = 0; step < qbits; ++step) {
    const size_t bit = qbits - 1 - step;
    const Wire s = b.not_(sign_bit(r));  // 1: subtract den, 0: add it
    Bus shifted(w);
    shifted[0] = bit >= frac && bit - frac < w ? num[bit - frac]
                                              : b.const_bit(false);
    for (size_t i = 1; i < w; ++i) shifted[i] = r[i - 1];
    Bus den_s(w);
    for (size_t i = 0; i < w; ++i) den_s[i] = b.xor_(den[i], s);
    r = add_full(b, shifted, den_s, s);
    q[bit] = b.not_(sign_bit(r));
  }
  return q;
}

}  // namespace deepsecure::synth
