#include "synth/cordic.h"

#include <cmath>
#include <stdexcept>

#include "synth/divider.h"
#include "synth/mult.h"

namespace deepsecure::synth {
namespace {

constexpr double kLn2 = 0.6931471805599453;
constexpr double kInvLn2 = 1.4426950408889634;

struct ScheduleEntry {
  size_t shift = 0;  // e = 2^-shift
  double e = 0.0;
  double atanh_e = 0.0;
};

// Standard hyperbolic schedule i = 1..iterations with the 3i+1 rule.
std::vector<ScheduleEntry> make_schedule(const CordicParams& p) {
  std::vector<ScheduleEntry> schedule;
  size_t next_repeat = 4;
  for (size_t i = 1; i <= p.iterations; ++i) {
    const double e = std::pow(2.0, -static_cast<double>(i));
    const double a = std::atanh(e);
    schedule.push_back({i, e, a});
    if (i == next_repeat) {
      schedule.push_back({i, e, a});
      next_repeat = 3 * next_repeat + 1;
    }
  }
  return schedule;
}

double schedule_gain(const std::vector<ScheduleEntry>& schedule) {
  double k = 1.0;
  for (const auto& it : schedule) k *= std::sqrt(1.0 - it.e * it.e);
  return k;
}

}  // namespace

Bus cordic_exp_neg(Builder& b, const Bus& a_in, size_t a_frac, double max_a,
                   const CordicParams& p) {
  const auto schedule = make_schedule(p);
  const size_t f = p.internal_frac;
  if (a_frac > f) throw std::invalid_argument("a_frac exceeds internal_frac");

  // Working width: fraction + enough integer bits for max_a (+ sign).
  const size_t int_bits =
      static_cast<size_t>(std::ceil(std::log2(max_a + 2.0)));
  const size_t w = f + int_bits + 2;

  Bus a = zero_extend(b, a_in, w);
  a = shl_const(b, a, f - a_frac);

  // Range reduction: k = floor(a / ln2), r = a - k*ln2 in [0, ~ln2].
  const FixedFormat wf{w, f};
  const Bus q = mult_const_fixed(b, a, kInvLn2, wf);
  const size_t k_bits =
      static_cast<size_t>(std::ceil(std::log2(max_a * kInvLn2 + 2.0)));
  Bus k(k_bits);
  for (size_t i = 0; i < k_bits; ++i) k[i] = q[f + i];
  Bus k_wide = zero_extend(b, k, w);
  k_wide = shl_const(b, k_wide, f);  // k as a fixed-point integer value
  const Bus k_ln2 = mult_const_fixed(b, k_wide, kLn2, wf);
  const Bus r = sub(b, a, k_ln2);

  // Rotation: z starts at -r and is driven to 0; u starts at 1/K.
  Bus z = negate(b, r);
  const double gain = schedule_gain(schedule);
  Bus u = constant_fixed(b, 1.0 / gain, wf);

  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduleEntry& it = schedule[i];
    // d = +1 iff z >= 0. u <- u + d*(u >> i); z <- z - d*atanh(e).
    const Wire d_neg = sign_bit(z);
    const Bus t = sar_const(u, it.shift);
    Bus t_cond(w);
    for (size_t j = 0; j < w; ++j) t_cond[j] = b.xor_(t[j], d_neg);
    u = add_full(b, u, t_cond, d_neg);
    if (i + 1 == schedule.size()) break;  // the last z is never read

    const Wire d_pos = b.not_(d_neg);
    const int64_t c = Fixed::from_double(it.atanh_e, wf).raw();
    const Bus cb = constant_bus(b, static_cast<uint64_t>(c), w);
    Bus c_cond(w);
    for (size_t j = 0; j < w; ++j) c_cond[j] = b.xor_(cb[j], d_pos);
    z = add_full(b, z, c_cond, d_pos);
  }

  // e^-a = e^-r >> k.
  return shr_variable(b, u, k);
}

namespace {

// Reduce the internal-precision CORDIC output to a Q(2.13)-style 16-bit
// bus for the final division; values involved are in [0, 2].
Bus to_div_format(const Bus& u, size_t from_frac, size_t to_frac,
                  size_t width) {
  Bus r = sar_const(u, from_frac - to_frac);
  return truncate(r, width);
}

}  // namespace

Bus tanh_cordic(Builder& b, const Bus& x, FixedFormat fmt,
                const CordicParams& p) {
  const size_t n = fmt.total_bits;
  // |x| clamped where tanh has saturated to 1.0 within one LSB.
  const double clamp_at = 4.875;
  Bus a = abs_clamped(b, x);
  a = clamp_const(b, a, 0, Fixed::from_double(clamp_at, fmt).raw());

  // u = e^(-2|x|); the doubling is a free shift (guarded against the
  // 2*4.875 overflow by evaluating at width n+1).
  Bus a2 = zero_extend(b, a, n + 1);
  a2 = shl_const(b, a2, 1);
  const Bus u = cordic_exp_neg(b, a2, fmt.frac_bits, 2.0 * clamp_at, p);

  // tanh = (1 - u) / (1 + u) computed in Q(2.13) at 16 bits. u16 stays
  // in [0, 8190] on every input, so 0 < num <= den < 2^14 meets
  // div_fraction's precondition and the quotient, at most 1.0 = 2^13,
  // fits 14 bits: the same floor((num << 13) / den) as the signed
  // div_fixed at 29 bits (test_activations pins the outputs).
  const size_t div_frac = 13;
  const size_t wd = 16;
  const Bus u16 = to_div_format(u, p.internal_frac, div_frac, wd);
  const Bus one = constant_bus(b, 1ull << div_frac, wd);
  const Bus num = sub(b, one, u16);
  const Bus den = add(b, one, u16);
  const Bus q =
      zero_extend(b, div_fraction(b, num, den, div_frac, div_frac + 1), wd);

  // Q(2.13) -> output format with round-to-nearest.
  Bus y =
      add(b, q, constant_bus(b, 1ull << (div_frac - fmt.frac_bits - 1), wd));
  y = sar_const(y, div_frac - fmt.frac_bits);
  y = truncate(y, n);
  return mux_bus(b, sign_bit(x), negate(b, y), y);
}

Bus sigmoid_cordic(Builder& b, const Bus& x, FixedFormat fmt,
                   const CordicParams& p) {
  const size_t n = fmt.total_bits;
  const double max_abs = std::pow(2.0, static_cast<double>(fmt.int_bits()));
  const Bus a = abs_clamped(b, x);

  const Bus u = cordic_exp_neg(b, a, fmt.frac_bits, max_abs, p);

  // sigmoid(|x|) = 1 / (1 + e^(-|x|)) in Q(2.13), divided as in tanh.
  const size_t div_frac = 13;
  const size_t wd = 16;
  const Bus u16 = to_div_format(u, p.internal_frac, div_frac, wd);
  const Bus one = constant_bus(b, 1ull << div_frac, wd);
  const Bus den = add(b, one, u16);
  const Bus q =
      zero_extend(b, div_fraction(b, one, den, div_frac, div_frac + 1), wd);

  Bus y =
      add(b, q, constant_bus(b, 1ull << (div_frac - fmt.frac_bits - 1), wd));
  y = sar_const(y, div_frac - fmt.frac_bits);
  y = truncate(y, n);

  const Bus one_out = constant_fixed(b, 1.0, fmt);
  return mux_bus(b, sign_bit(x), sub(b, one_out, y), y);
}

double ref_cordic_exp_neg(double a, const CordicParams& p) {
  const auto schedule = make_schedule(p);
  const int k = static_cast<int>(std::floor(a * kInvLn2));
  const double r = a - static_cast<double>(k) * kLn2;

  double u = 1.0 / schedule_gain(schedule);
  double angle = -r;
  for (const ScheduleEntry& it : schedule) {
    const double d = angle >= 0.0 ? 1.0 : -1.0;
    u *= (1.0 + d * it.e);
    angle -= d * it.atanh_e;
  }
  return u * std::pow(2.0, -k);
}

}  // namespace deepsecure::synth
