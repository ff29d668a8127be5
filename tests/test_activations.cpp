#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "synth/activation.h"
#include "synth/cordic.h"
#include "synth/lut.h"
#include "synth/piecewise.h"
#include "test_util.h"

namespace deepsecure::synth {
namespace {

constexpr FixedFormat kFmt = kDefaultFormat;

Circuit build_activation(ActKind kind) {
  Builder b(act_kind_name(kind));
  const Bus x = input_fixed(b, Party::kGarbler, kFmt);
  b.outputs(activation(b, x, kind, kFmt));
  return b.build();
}

double eval_act(const Circuit& c, double x) {
  const BitVec out = c.eval(Fixed::from_double(x, kFmt).to_bits(), {});
  return Fixed::from_bits(out, kFmt).to_double();
}

struct ActCase {
  ActKind kind;
  double max_err;  // tolerated |circuit - ideal| over the sweep
};

class ActivationSweep : public ::testing::TestWithParam<ActCase> {};

TEST_P(ActivationSweep, TracksIdealFunction) {
  const auto param = GetParam();
  const Circuit c = build_activation(param.kind);
  double worst = 0.0;
  for (double x = -7.9; x <= 7.9; x += 0.0837) {
    const double got = eval_act(c, x);
    const double want = activation_ideal(x, param.kind);
    worst = std::max(worst, std::abs(got - want));
  }
  EXPECT_LE(worst, param.max_err) << act_kind_name(param.kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ActivationSweep,
    ::testing::Values(
        ActCase{ActKind::kReLU, 1.0 / 4096},
        ActCase{ActKind::kTanhLUT, 1.5 / 4096},
        ActCase{ActKind::kTanhSeg, 0.001},
        ActCase{ActKind::kTanhPL, 0.02},
        ActCase{ActKind::kTanhCORDIC, 0.002},
        ActCase{ActKind::kSigmoidLUT, 1.5 / 4096},
        ActCase{ActKind::kSigmoidSeg, 0.001},
        ActCase{ActKind::kSigmoidPLAN, 0.02},
        ActCase{ActKind::kSigmoidCORDIC, 0.002}),
    [](const auto& info) { return act_kind_name(info.param.kind); });

TEST(Activation, OddAndReflectionSymmetry) {
  const Circuit tanh_c = build_activation(ActKind::kTanhSeg);
  const Circuit sig_c = build_activation(ActKind::kSigmoidSeg);
  for (double x : {0.25, 0.8, 1.7, 3.3, 6.1}) {
    EXPECT_NEAR(eval_act(tanh_c, -x), -eval_act(tanh_c, x), 2.0 / 4096);
    EXPECT_NEAR(eval_act(sig_c, -x), 1.0 - eval_act(sig_c, x), 2.0 / 4096);
  }
}

TEST(Activation, LutExactWithinRepresentation) {
  // The LUT variant must be exactly round(f(x_representable)).
  const Circuit c = build_activation(ActKind::kTanhLUT);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Fixed x = test::random_fixed(rng, kFmt);
    const BitVec out = c.eval(x.to_bits(), {});
    const int64_t want = Fixed::from_double(std::tanh(x.to_double()), kFmt).raw();
    EXPECT_NEAR(static_cast<double>(Fixed::from_bits(out, kFmt).raw()),
                static_cast<double>(want), 1.0)
        << "x=" << x.to_double();
  }
}

TEST(Activation, GateCostOrdering) {
  // The paper's cost hierarchy: LUT >> CORDIC/reduced >> piece-wise.
  const auto lut = build_activation(ActKind::kTanhLUT).stats().num_and;
  const auto seg = build_activation(ActKind::kTanhSeg).stats().num_and;
  const auto cor = build_activation(ActKind::kTanhCORDIC).stats().num_and;
  const auto pl = build_activation(ActKind::kTanhPL).stats().num_and;
  EXPECT_GT(lut, 2 * seg);
  EXPECT_GT(cor, pl);
  EXPECT_LT(pl, 2000u);
  const auto plan = build_activation(ActKind::kSigmoidPLAN).stats().num_and;
  EXPECT_LT(plan, 400u);  // shifts only
}

// Circuit::eval on 64 inputs at once: bit k of every word is lane k.
std::vector<uint64_t> eval_lanes(const Circuit& c,
                                 const std::vector<uint64_t>& inputs) {
  std::vector<uint64_t> w(c.num_wires, 0);
  w[kConst1] = ~uint64_t{0};
  for (size_t i = 0; i < c.garbler_inputs.size(); ++i)
    w[c.garbler_inputs[i]] = inputs[i];
  for (const Gate& g : c.gates)
    w[g.out] = g.op == GateOp::kXor ? w[g.a] ^ w[g.b] : w[g.a] & w[g.b];
  std::vector<uint64_t> out(c.outputs.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = w[c.outputs[i]];
  return out;
}

// FNV-1a 64 over the 16-bit outputs (little-endian) of every input
// 0..65535 in order; every 4,099th input is also checked against eval.
uint64_t output_digest(const Circuit& c) {
  uint64_t h = 14695981039346656037ull;
  for (uint32_t base = 0; base < 65536; base += 64) {
    std::vector<uint64_t> in(16, 0);
    for (uint32_t k = 0; k < 64; ++k)
      for (size_t i = 0; i < 16; ++i)
        in[i] |= uint64_t{((base + k) >> i) & 1u} << k;
    const std::vector<uint64_t> out = eval_lanes(c, in);
    for (uint32_t k = 0; k < 64; ++k) {
      uint64_t v = 0;
      for (size_t i = 0; i < 16; ++i) v |= ((out[i] >> k) & 1u) << i;
      if ((base + k) % 4099 == 0) {
        EXPECT_EQ(v, from_bits(c.eval(to_bits(base + k, 16), {})))
            << base + k;
      }
      for (const uint64_t byte : {v & 0xff, v >> 8}) {
        h ^= byte;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

// The range-exact divider reproduces the generic signed divider's
// outputs bit for bit on every input (digests of the circuits built
// with div_fixed), at under half its AND gates.
TEST(Cordic, OutputsPinnedOnAllInputs) {
  const Circuit tanh_c = build_activation(ActKind::kTanhCORDIC);
  const Circuit sig_c = build_activation(ActKind::kSigmoidCORDIC);
  EXPECT_EQ(output_digest(tanh_c), 0x96bf163e5bcc59bfull);
  EXPECT_EQ(output_digest(sig_c), 0xaa93ce333654b073ull);
  EXPECT_LE(tanh_c.stats().num_and, 1225u);
  EXPECT_LE(sig_c.stats().num_and, 1150u);
}

TEST(Lut, GenericTableSelect) {
  Builder b;
  const Bus idx = input_bus(b, Party::kGarbler, 3);
  const std::vector<int64_t> table{5, -3, 0, 7, 120, -128, 1, 2};
  b.outputs(lut(b, idx, table, 8));
  const Circuit c = b.build();
  for (size_t i = 0; i < table.size(); ++i) {
    const BitVec out = c.eval(to_bits(i, 3), {});
    EXPECT_EQ(deepsecure::sign_extend(from_bits(out), 8), table[i]) << i;
  }
}

TEST(Cordic, ExpReferenceConverges) {
  const CordicParams p;
  for (double a : {0.0, 0.5, 1.0, 3.0, 7.5, 9.0}) {
    const double got = ref_cordic_exp_neg(a, p);
    EXPECT_NEAR(got, std::exp(-a), 3e-4) << "a=" << a;
  }
}

TEST(Cordic, CircuitMatchesExpModel) {
  Builder b;
  const size_t afrac = 14;
  const Bus a = input_bus(b, Party::kGarbler, 20);
  b.outputs(cordic_exp_neg(b, a, afrac, 4.0));
  const Circuit c = b.build();
  const CordicParams p;
  for (double av : {0.0, 0.3, 1.1, 2.7, 3.9}) {
    const Fixed fa = Fixed::from_double(av, FixedFormat{20, afrac});
    const BitVec out = c.eval(fa.to_bits(), {});
    const double got =
        static_cast<double>(from_bits(out)) / std::pow(2.0, p.internal_frac);
    EXPECT_NEAR(got, std::exp(-av), 1e-3) << "a=" << av;
  }
}

TEST(SegmentInterp, RejectsBadConfig) {
  Builder b;
  const Bus x = input_bus(b, Party::kGarbler, 16);
  EXPECT_THROW(segment_interp(b, x, 8.0, 100, ref_tanh, kFmt),
               std::invalid_argument);  // not a power of two
}

}  // namespace
}  // namespace deepsecure::synth
