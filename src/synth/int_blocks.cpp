#include "synth/int_blocks.h"

#include <stdexcept>

namespace deepsecure::synth {

Bus constant_bus(Builder& b, uint64_t v, size_t n) {
  Bus out(n);
  for (size_t i = 0; i < n; ++i) out[i] = b.const_bit(((v >> i) & 1u) != 0);
  return out;
}

Bus constant_fixed(Builder& b, double x, FixedFormat fmt) {
  const Fixed f = Fixed::from_double(x, fmt);
  return constant_bus(b, static_cast<uint64_t>(f.raw()), fmt.total_bits);
}

Bus input_bus(Builder& b, Party p, size_t n) { return b.inputs(p, n); }

Bus sign_extend(const Bus& a, size_t n) {
  if (n < a.size()) throw std::invalid_argument("sign_extend shrinks bus");
  Bus out = a;
  out.resize(n, a.back());
  return out;
}

Bus zero_extend(Builder& b, const Bus& a, size_t n) {
  if (n < a.size()) throw std::invalid_argument("zero_extend shrinks bus");
  Bus out = a;
  out.resize(n, b.const_bit(false));
  return out;
}

Bus truncate(const Bus& a, size_t n) {
  if (n > a.size()) throw std::invalid_argument("truncate grows bus");
  return Bus(a.begin(), a.begin() + static_cast<ptrdiff_t>(n));
}

Bus slice(const Bus& a, size_t lo, size_t n) {
  if (lo + n > a.size()) throw std::invalid_argument("slice past bus end");
  return Bus(a.begin() + static_cast<ptrdiff_t>(lo),
             a.begin() + static_cast<ptrdiff_t>(lo + n));
}

Bus shl_const(Builder& b, const Bus& a, size_t k) {
  Bus out(a.size(), b.const_bit(false));
  for (size_t i = k; i < a.size(); ++i) out[i] = a[i - k];
  return out;
}

Bus sar_const(const Bus& a, size_t k) {
  Bus out(a.size(), a.back());
  for (size_t i = 0; i + k < a.size(); ++i) out[i] = a[i + k];
  return out;
}

Bus add_full(Builder& b, const Bus& a, const Bus& y, Wire cin, Wire* cout) {
  if (a.size() != y.size()) throw std::invalid_argument("adder width mismatch");
  const size_t n = a.size();
  Bus s(n);
  Wire c = cin;
  for (size_t i = 0; i < n; ++i) {
    const Wire axc = b.xor_(a[i], c);
    const Wire bxc = b.xor_(y[i], c);
    s[i] = b.xor_(axc, y[i]);  // a ^ b ^ c
    const bool need_carry = (i + 1 < n) || cout != nullptr;
    if (need_carry) c = b.xor_(c, b.and_(axc, bxc));
  }
  if (cout != nullptr) *cout = c;
  return s;
}

Bus add(Builder& b, const Bus& a, const Bus& y) {
  return add_full(b, a, y, b.const_bit(false));
}

Bus sub(Builder& b, const Bus& a, const Bus& y) {
  Bus ny(y.size());
  for (size_t i = 0; i < y.size(); ++i) ny[i] = b.not_(y[i]);
  return add_full(b, a, ny, b.const_bit(true));
}

Bus negate(Builder& b, const Bus& a) {
  return sub(b, constant_bus(b, 0, a.size()), a);
}

Wire lt_signed(Builder& b, const Bus& a, const Bus& y) {
  // Sign of (a - b) computed at width n+1 — cannot overflow.
  const Bus ea = sign_extend(a, a.size() + 1);
  const Bus ey = sign_extend(y, y.size() + 1);
  return sign_bit(sub(b, ea, ey));
}

Wire lt_unsigned(Builder& b, const Bus& a, const Bus& y) {
  Bus ea = a, ey = y;
  ea.push_back(b.const_bit(false));
  ey.push_back(b.const_bit(false));
  return sign_bit(sub(b, ea, ey));
}

Wire eq(Builder& b, const Bus& a, const Bus& y) {
  if (a.size() != y.size()) throw std::invalid_argument("eq width mismatch");
  // NOR of pairwise XORs as a balanced AND tree of XNORs: n-1 ANDs.
  std::vector<Wire> terms(a.size());
  for (size_t i = 0; i < a.size(); ++i) terms[i] = b.xnor_(a[i], y[i]);
  while (terms.size() > 1) {
    std::vector<Wire> next;
    for (size_t i = 0; i + 1 < terms.size(); i += 2)
      next.push_back(b.and_(terms[i], terms[i + 1]));
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms[0];
}

Wire is_zero(Builder& b, const Bus& a) {
  return eq(b, a, constant_bus(b, 0, a.size()));
}

Bus mux_bus(Builder& b, Wire sel, const Bus& t, const Bus& f) {
  if (t.size() != f.size()) throw std::invalid_argument("mux width mismatch");
  Bus out(t.size());
  for (size_t i = 0; i < t.size(); ++i) out[i] = b.mux(sel, t[i], f[i]);
  return out;
}

Bus abs_signed(Builder& b, const Bus& a) {
  return mux_bus(b, sign_bit(a), negate(b, a), a);
}

Bus abs_clamped(Builder& b, const Bus& a) {
  Bus r = abs_signed(b, a);
  const Wire overflow = sign_bit(r);
  const uint64_t maxv = (1ull << (a.size() - 1)) - 1;
  return mux_bus(b, overflow, constant_bus(b, maxv, a.size()), r);
}

Bus max_signed(Builder& b, const Bus& a, const Bus& y) {
  const Wire a_lt_y = lt_signed(b, a, y);
  return mux_bus(b, a_lt_y, y, a);
}

Bus relu(Builder& b, const Bus& a) {
  const Wire keep = b.not_(sign_bit(a));
  Bus out(a.size());
  for (size_t i = 0; i + 1 < a.size(); ++i) out[i] = b.and_(keep, a[i]);
  out.back() = b.const_bit(false);  // result is never negative
  return out;
}

Bus clamp_const(Builder& b, const Bus& a, int64_t lo, int64_t hi) {
  if (lo > hi) throw std::invalid_argument("clamp bounds inverted");
  const size_t n = a.size();
  const Bus lo_bus = constant_bus(b, static_cast<uint64_t>(lo), n);
  const Bus hi_bus = constant_bus(b, static_cast<uint64_t>(hi), n);
  const Wire below = lt_signed(b, a, lo_bus);
  const Wire above = lt_signed(b, hi_bus, a);
  Bus out = mux_bus(b, below, lo_bus, a);
  out = mux_bus(b, above, hi_bus, out);
  return out;
}

Bus shr_variable(Builder& b, const Bus& a, const Bus& k) {
  Bus r = a;
  for (size_t j = 0; j < k.size(); ++j) {
    const size_t amount = size_t{1} << j;
    Bus shifted(r.size(), b.const_bit(false));
    for (size_t i = 0; i + amount < r.size(); ++i) shifted[i] = r[i + amount];
    r = mux_bus(b, k[j], shifted, r);
  }
  return r;
}

Bus shl_variable(Builder& b, const Bus& a, const Bus& k) {
  Bus r = a;
  for (size_t j = 0; j < k.size(); ++j) {
    const size_t amount = size_t{1} << j;
    Bus shifted(r.size(), b.const_bit(false));
    for (size_t i = amount; i < r.size(); ++i) shifted[i] = r[i - amount];
    r = mux_bus(b, k[j], shifted, r);
  }
  return r;
}

Bus leading_zero_count(Builder& b, const Bus& a) {
  const size_t n = a.size();
  const size_t kbits = clog2(n + 1);
  Bus count = constant_bus(b, n, kbits);  // all-zero word
  Wire found = b.const_bit(false);
  for (size_t i = n; i-- > 0;) {
    const Wire is_leading = b.and_(a[i], b.not_(found));
    count = mux_bus(b, is_leading, constant_bus(b, n - 1 - i, kbits), count);
    found = b.or_(found, a[i]);
  }
  return count;
}

}  // namespace deepsecure::synth
