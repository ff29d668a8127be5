#include <gtest/gtest.h>

#include <climits>
#include <tuple>
#include <utility>
#include <vector>

#include "synth/divider.h"
#include "synth/mult.h"
#include "test_util.h"

namespace deepsecure::synth {
namespace {

using test::random_fixed;

// Builds a single MULT with y owned by `y_owner`: an evaluator-owned y
// (a weight) takes the Booth path, a garbler-owned y the array path.
Circuit mult_circuit(FixedFormat fmt, Party y_owner) {
  Builder bld;
  const Bus x = input_fixed(bld, Party::kGarbler, fmt);
  const Bus y = input_fixed(bld, y_owner, fmt);
  bld.outputs(mult_fixed(bld, x, y, fmt.frac_bits));
  return bld.build();
}

int64_t eval_mult(const Circuit& c, int64_t a, int64_t b, FixedFormat fmt) {
  BitVec g = Fixed::from_raw(a, fmt).to_bits();
  BitVec e = Fixed::from_raw(b, fmt).to_bits();
  if (c.evaluator_inputs.empty()) {
    g.insert(g.end(), e.begin(), e.end());
    e.clear();
  }
  return Fixed::from_bits(c.eval(g, e), fmt).raw();
}

int64_t run_mult(int64_t a, int64_t b, FixedFormat fmt) {
  return eval_mult(mult_circuit(fmt, Party::kEvaluator), a, b, fmt);
}

// (width, frac = 0?, owner of y).
using MultCase = std::tuple<size_t, bool, Party>;
class MultSweep : public ::testing::TestWithParam<MultCase> {};

TEST_P(MultSweep, MatchesFixedReference) {
  const auto [width, integer, owner] = GetParam();
  const FixedFormat fmt{width, integer ? 0 : width - 4};
  const Circuit c = mult_circuit(fmt, owner);
  const int64_t lo = -(int64_t{1} << (width - 1)), hi = -lo - 1;
  std::vector<int64_t> vals = {0, 1, -1, lo, hi, lo + 1, hi - 1};
  Rng rng(width * 31 + (integer ? 7 : 0));
  for (int i = 0; i < 40; ++i) vals.push_back(random_fixed(rng, fmt).raw());
  for (const int64_t a : vals)
    for (const int64_t b : {vals[rng.next_u64() % vals.size()], vals[0],
                            vals[3], vals[4]}) {
      const Fixed want = Fixed::from_raw(a, fmt) * Fixed::from_raw(b, fmt);
      EXPECT_EQ(eval_mult(c, a, b, fmt), want.raw())
          << "w=" << width << " frac=" << fmt.frac_bits << " a=" << a
          << " b=" << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, MultSweep,
    ::testing::Combine(::testing::Values(5, 8, 9, 12, 15, 16, 20),
                       ::testing::Bool(),
                       ::testing::Values(Party::kEvaluator, Party::kGarbler)));

// Every weight y against the edge values of x, at the served format and
// at frac = 0 (mult_low).
TEST(Mult, BoothExhaustiveWeightsOnEdgeInputs) {
  for (const FixedFormat fmt : {kDefaultFormat, FixedFormat{16, 0}}) {
    const Circuit c = mult_circuit(fmt, Party::kEvaluator);
    for (const int64_t a : {0, 1, -1, INT16_MIN, INT16_MAX}) {
      size_t mismatches = 0;
      for (int64_t b = INT16_MIN; b <= INT16_MAX; ++b) {
        const Fixed want = Fixed::from_raw(a, fmt) * Fixed::from_raw(b, fmt);
        mismatches += eval_mult(c, a, b, fmt) != want.raw();
      }
      EXPECT_EQ(mismatches, 0u) << "frac=" << fmt.frac_bits << " a=" << a;
    }
  }
}

// The structure follows the owner of y: a weight gets Booth (every AND
// on a digit ships one row), a garbled y the array.
TEST(Mult, BoothOnWeightsArrayOnGarbledOperands) {
  const CircuitStats booth =
      mult_circuit(kDefaultFormat, Party::kEvaluator).stats();
  EXPECT_EQ(booth.num_and, 423u);
  EXPECT_EQ(booth.num_and_known, 275u);
  EXPECT_EQ(booth.table_bytes(), 9136u);
  // The array path's counts are those of the array multiplier before
  // Booth, for a garbled and for a constant y.
  const CircuitStats array =
      mult_circuit(kDefaultFormat, Party::kGarbler).stats();
  EXPECT_EQ(array.num_and, 584u);
  EXPECT_EQ(array.num_and_known, 0u);
  EXPECT_EQ(array.num_xor, 1255u);
  for (const auto& [c, ands, xors] :
       {std::tuple{0.25, 26u, 71u}, std::tuple{0.3125, 41u, 136u},
        std::tuple{-1.7, 173u, 688u}}) {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kDefaultFormat);
    b.outputs(mult_const_fixed(b, x, c, kDefaultFormat));
    const CircuitStats st = b.build().stats();
    EXPECT_EQ(st.num_and, ands) << c;
    EXPECT_EQ(st.num_xor, xors) << c;
  }
  // No evaluator input is added: the weight's 16 bits are all it reads.
  EXPECT_EQ(mult_circuit(kDefaultFormat, Party::kEvaluator)
                .evaluator_inputs.size(),
            16u);
}

TEST(Mult, ExhaustiveSmallSigned) {
  const FixedFormat fmt{5, 2};
  for (int a = -16; a < 16; ++a)
    for (int b = -16; b < 16; ++b)
      EXPECT_EQ(run_mult(a, b, fmt),
                (Fixed::from_raw(a, fmt) * Fixed::from_raw(b, fmt)).raw())
          << a << "*" << b;
}

TEST(Mult, IntegerLowBits) {
  const FixedFormat fmt{16, 0};
  Builder bld;
  const Bus x = input_fixed(bld, Party::kGarbler, fmt);
  const Bus y = input_fixed(bld, Party::kEvaluator, fmt);
  bld.outputs(mult_low(bld, x, y));
  const Circuit c = bld.build();
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const int64_t a = deepsecure::sign_extend(rng.next_u64(), 16);
    const int64_t b = deepsecure::sign_extend(rng.next_u64(), 16);
    const BitVec out = c.eval(Fixed::from_raw(a, fmt).to_bits(),
                              Fixed::from_raw(b, fmt).to_bits());
    EXPECT_EQ(Fixed::from_bits(out, fmt).raw(),
              deepsecure::sign_extend(static_cast<uint64_t>(a * b), 16));
  }
}

TEST(Mult, ConstantMultFoldsGates) {
  const FixedFormat fmt = kDefaultFormat;
  Builder b1;
  const Bus x1 = input_fixed(b1, Party::kGarbler, fmt);
  b1.outputs(mult_const_fixed(b1, x1, 0.25, fmt));  // power of two
  Builder b2;
  const Bus x2 = input_fixed(b2, Party::kGarbler, fmt);
  const Bus y2 = input_fixed(b2, Party::kEvaluator, fmt);
  b2.outputs(mult_fixed(b2, x2, y2, fmt.frac_bits));
  // A power-of-two constant multiply must be far cheaper than generic.
  EXPECT_LT(b1.and_count() * 5, b2.and_count());

  // And it must still be correct.
  Builder b3;
  const Bus x3 = input_fixed(b3, Party::kGarbler, fmt);
  b3.outputs(mult_const_fixed(b3, x3, 0.3125, fmt));
  const Circuit c = b3.build();
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const Fixed a = random_fixed(rng, fmt);
    const BitVec out = c.eval(a.to_bits(), {});
    EXPECT_EQ(Fixed::from_bits(out, fmt).raw(),
              (a * Fixed::from_double(0.3125, fmt)).raw());
  }
}

int64_t run_div(int64_t a, int64_t b, FixedFormat fmt, bool fixed_point) {
  Builder bld;
  const Bus x = input_fixed(bld, Party::kGarbler, fmt);
  const Bus y = input_fixed(bld, Party::kEvaluator, fmt);
  bld.outputs(fixed_point ? div_fixed(bld, x, y, fmt.frac_bits)
                          : div_signed(bld, x, y));
  const Circuit c = bld.build();
  const BitVec out = c.eval(Fixed::from_raw(a, fmt).to_bits(),
                            Fixed::from_raw(b, fmt).to_bits());
  return Fixed::from_bits(out, fmt).raw();
}

TEST(Div, SignedIntegerQuotient) {
  const FixedFormat fmt{16, 0};
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    int64_t a = deepsecure::sign_extend(rng.next_u64(), 15);
    int64_t b = deepsecure::sign_extend(rng.next_u64(), 12);
    if (b == 0) b = 3;
    EXPECT_EQ(run_div(a, b, fmt, false), a / b) << a << "/" << b;
  }
}

TEST(Div, ExhaustiveSmall) {
  const FixedFormat fmt{6, 0};
  for (int a = -32; a < 32; ++a)
    for (int b = -32; b < 32; ++b) {
      if (b == 0) continue;
      // Compare under the format's wrap-around semantics (-32/-1 wraps).
      EXPECT_EQ(run_div(a, b, fmt, false), Fixed::from_raw(a / b, fmt).raw())
          << a << "/" << b;
    }
}

TEST(Div, FixedPointQuotient) {
  const FixedFormat fmt = kDefaultFormat;
  Rng rng(29);
  for (int i = 0; i < 40; ++i) {
    const double a = rng.next_uniform(-3, 3);
    double b = rng.next_uniform(0.5, 4.0) * (rng.next_bool() ? 1 : -1);
    const Fixed fa = Fixed::from_double(a, fmt);
    const Fixed fb = Fixed::from_double(b, fmt);
    const int64_t q = run_div(fa.raw(), fb.raw(), fmt, true);
    const double expect = fa.to_double() / fb.to_double();
    EXPECT_NEAR(static_cast<double>(q) / 4096.0, expect, 2.0 / 4096.0)
        << a << "/" << b;
  }
}

TEST(Div, UnsignedCore) {
  const FixedFormat fmt{8, 0};
  Builder bld;
  const Bus x = input_bus(bld, Party::kGarbler, 8);
  const Bus y = input_bus(bld, Party::kEvaluator, 8);
  bld.outputs(div_unsigned(bld, x, y));
  const Circuit c = bld.build();
  for (uint64_t a : {0ull, 1ull, 17ull, 128ull, 255ull}) {
    for (uint64_t b : {1ull, 2ull, 3ull, 100ull, 255ull}) {
      const BitVec out = c.eval(to_bits(a, 8), to_bits(b, 8));
      EXPECT_EQ(from_bits(out), a / b) << a << "/" << b;
    }
  }
}

// num / den circuit at `width` bits, num owned by the garbler.
Circuit fraction_circuit(size_t width, size_t frac, size_t qbits) {
  Builder bld;
  const Bus num = input_bus(bld, Party::kGarbler, width);
  const Bus den = input_bus(bld, Party::kEvaluator, width);
  bld.outputs(div_fraction(bld, num, den, frac, qbits));
  return bld.build();
}

// Exhaustive over the precondition 0 <= num <= den, den > 0 at 6 bits,
// for a quotient with and without leading dividend bits.
TEST(Div, FractionExhaustiveSmall) {
  const size_t width = 6;
  for (const auto& [frac, qbits] :
       std::vector<std::pair<size_t, size_t>>{{4, 5}, {3, 6}, {0, 1}}) {
    const Circuit c = fraction_circuit(width, frac, qbits);
    for (uint64_t den = 1; den < 32; ++den)
      for (uint64_t num = 0; num <= den; ++num) {
        const BitVec out = c.eval(to_bits(num, width), to_bits(den, width));
        EXPECT_EQ(from_bits(out), (num << frac) / den)
            << num << "/" << den << " frac " << frac << " qbits " << qbits;
      }
  }
}

// CORDIC's operands in Q(2.13) for every u16 in [0, 8190], tanh's
// 1 - u and sigmoid's 1 over 1 + u: the range-exact divider and the
// signed div_fixed agree.
TEST(Div, FractionMatchesFixedOnCordicRange) {
  const FixedFormat fmt{16, 13};
  const Circuit fraction = fraction_circuit(16, 13, 14);
  Builder bld;
  const Bus num = input_fixed(bld, Party::kGarbler, fmt);
  const Bus den = input_fixed(bld, Party::kEvaluator, fmt);
  bld.outputs(div_fixed(bld, num, den, fmt.frac_bits));
  const Circuit fixed = bld.build();
  // One 16-bit adder (15 ANDs) per quotient bit.
  EXPECT_LE(fraction.stats().num_and, 14u * 15u);
  for (uint64_t u = 0; u <= 8190; ++u) {
    const BitVec d = to_bits((1u << 13) + u, 16);
    for (const uint64_t num : {(1u << 13) - u, uint64_t{1} << 13}) {
      const BitVec n = to_bits(num, 16);
      ASSERT_EQ(from_bits(fraction.eval(n, d)), from_bits(fixed.eval(n, d)))
          << num << " / " << (1u << 13) + u;
    }
  }
}

}  // namespace
}  // namespace deepsecure::synth
