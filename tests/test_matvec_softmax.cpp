#include <gtest/gtest.h>

#include "synth/matvec.h"
#include "synth/softmax.h"
#include "test_util.h"

namespace deepsecure::synth {
namespace {

using test::pack_fixed;
using test::random_fixed;

constexpr FixedFormat kFmt = kDefaultFormat;

TEST(MatVec, MatchesFixedReference) {
  const size_t m = 5, n = 3;
  const Circuit c = make_matvec_circuit(m, n, kFmt);
  Rng rng(1);
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < m; ++i) x.push_back(random_fixed(rng, kFmt, 0.1));
  for (size_t i = 0; i < m * n; ++i) w.push_back(random_fixed(rng, kFmt, 0.1));

  const BitVec out = c.eval(pack_fixed(x), pack_fixed(w));
  for (size_t col = 0; col < n; ++col) {
    int64_t sum = 0;  // full products, truncated once
    for (size_t i = 0; i < m; ++i) sum += x[i].raw() * w[col * m + i].raw();
    const BitVec bits(out.begin() + static_cast<ptrdiff_t>(col * 16),
                      out.begin() + static_cast<ptrdiff_t>((col + 1) * 16));
    EXPECT_EQ(Fixed::from_bits(bits, kFmt).raw(),
              Fixed::from_product_sum(sum, kFmt).raw())
        << "col " << col;
  }
}

TEST(MatVec, MaskedSkipsPrunedTerms) {
  Builder b;
  std::vector<Bus> x(4), w(4);
  for (auto& bus : x) bus = input_fixed(b, Party::kGarbler, kFmt);
  for (auto& bus : w) bus = input_fixed(b, Party::kEvaluator, kFmt);
  const std::vector<uint8_t> mask{1, 0, 1, 0};
  b.outputs(dot_masked(b, x, w, mask, kFmt.frac_bits));
  const uint64_t masked_ands = b.and_count();
  const Circuit c = b.build();

  Builder b2;
  std::vector<Bus> x2(4), w2(4);
  for (auto& bus : x2) bus = input_fixed(b2, Party::kGarbler, kFmt);
  for (auto& bus : w2) bus = input_fixed(b2, Party::kEvaluator, kFmt);
  b2.outputs(dot(b2, x2, w2, kFmt.frac_bits));
  EXPECT_LT(masked_ands, b2.and_count() * 6 / 10);  // ~half the gates

  Rng rng(2);
  std::vector<Fixed> xs, ws;
  for (int i = 0; i < 4; ++i) xs.push_back(random_fixed(rng, kFmt, 0.2));
  for (int i = 0; i < 4; ++i) ws.push_back(random_fixed(rng, kFmt, 0.2));
  const BitVec out = c.eval(pack_fixed(xs), pack_fixed(ws));
  const Fixed expect = Fixed::from_product_sum(
      xs[0].raw() * ws[0].raw() + xs[2].raw() * ws[2].raw(), kFmt);
  EXPECT_EQ(Fixed::from_bits(out, kFmt).raw(), expect.raw());
}

TEST(MatVec, AllPrunedIsZero) {
  Builder b;
  std::vector<Bus> x(2), w(2);
  for (auto& bus : x) bus = input_fixed(b, Party::kGarbler, kFmt);
  for (auto& bus : w) bus = input_fixed(b, Party::kEvaluator, kFmt);
  b.outputs(dot_masked(b, x, w, {0, 0}, kFmt.frac_bits));
  const Circuit c = b.build();
  EXPECT_EQ(c.stats().num_and, 0u);
  Rng rng(3);
  const BitVec out = c.eval(
      pack_fixed({random_fixed(rng, kFmt), random_fixed(rng, kFmt)}),
      pack_fixed({random_fixed(rng, kFmt), random_fixed(rng, kFmt)}));
  EXPECT_EQ(Fixed::from_bits(out, kFmt).raw(), 0);
}

// The folded MAC keeps an n+f-bit accumulator and truncates on the way
// out, so m cycles compute what dot computes.
TEST(MatVec, SequentialMacStep) {
  const Circuit step = make_mac_step_circuit(kFmt);
  EXPECT_EQ(step.state_inputs.size(), 28u);
  Rng rng(4);
  const size_t cycles = 9;
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < cycles; ++i) {
    x.push_back(random_fixed(rng, kFmt, 0.15));
    w.push_back(random_fixed(rng, kFmt, 0.15));
  }
  const BitVec out =
      eval_sequential(step, cycles, pack_fixed(x), pack_fixed(w));
  int64_t sum = 0;
  for (size_t i = 0; i < cycles; ++i) sum += x[i].raw() * w[i].raw();
  EXPECT_EQ(Fixed::from_bits(out, kFmt).raw(),
            Fixed::from_product_sum(sum, kFmt).raw());
}

TEST(Argmax, FindsMaximumIndex) {
  Rng rng(5);
  for (size_t n : {2u, 5u, 10u, 26u}) {
    Builder b;
    std::vector<Bus> vals(n);
    for (auto& bus : vals) bus = input_fixed(b, Party::kGarbler, kFmt);
    b.outputs(argmax(b, vals));
    const Circuit c = b.build();

    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Fixed> xs;
      for (size_t i = 0; i < n; ++i) xs.push_back(random_fixed(rng, kFmt));
      size_t want = 0;
      for (size_t i = 1; i < n; ++i)
        if (xs[i].raw() > xs[want].raw()) want = i;
      const BitVec out = c.eval(pack_fixed(xs), {});
      EXPECT_EQ(from_bits(out), want) << "n=" << n;
    }
  }
}

TEST(Argmax, TieBreaksToLowerIndex) {
  Builder b;
  std::vector<Bus> vals(3);
  for (auto& bus : vals) bus = input_fixed(b, Party::kGarbler, kFmt);
  b.outputs(argmax(b, vals));
  const Circuit c = b.build();
  const Fixed v = Fixed::from_double(1.0, kFmt);
  const BitVec out = c.eval(pack_fixed({v, v, v}), {});
  EXPECT_EQ(from_bits(out), 0u);
}

TEST(Argmax, OneHotAgrees) {
  Builder b;
  std::vector<Bus> vals(4);
  for (auto& bus : vals) bus = input_fixed(b, Party::kGarbler, kFmt);
  b.outputs(argmax_onehot(b, vals));
  const Circuit c = b.build();
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Fixed> xs;
    for (int i = 0; i < 4; ++i) xs.push_back(random_fixed(rng, kFmt));
    size_t want = 0;
    for (size_t i = 1; i < 4; ++i)
      if (xs[i].raw() > xs[want].raw()) want = i;
    const BitVec out = c.eval(pack_fixed(xs), {});
    for (size_t i = 0; i < 4; ++i)
      EXPECT_EQ(out[i], i == want ? 1 : 0);
  }
}

TEST(Argmax, PaperGateBudget) {
  // Table 3: Softmax_n = (n-1)*32 non-XOR for the CMP+MUX chain; our
  // realization adds the index muxes, so allow modest overhead.
  Builder b;
  std::vector<Bus> vals(10);
  for (auto& bus : vals) bus = input_fixed(b, Party::kGarbler, kFmt);
  b.outputs(argmax(b, vals));
  const uint64_t per_step = b.and_count() / 9;
  EXPECT_GE(per_step, 32u);
  EXPECT_LE(per_step, 48u);
}

}  // namespace
}  // namespace deepsecure::synth
