#include <gtest/gtest.h>

#include "core/benchmark_zoo.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"

namespace deepsecure::cost {
namespace {

TEST(CostModel, Table2FormulasAtPaperConstants) {
  // Reconstruct benchmark 1's Table 4 row from its published gate
  // counts: Comm = 2.47e7 * 32 B = 790.4 MB; Comp = (4.31e7*62 +
  // 2.47e7*164)/3.4e9 = 1.977 s; Exec = Comm / 81.8 MB/s = 9.66 s.
  synth::GateCount g{static_cast<uint64_t>(4.31e7),
                     static_cast<uint64_t>(2.47e7)};
  const NetworkCost c = cost_from_gates(g);
  EXPECT_NEAR(c.comm_bytes / 1e6, 790.4, 1.0);
  EXPECT_NEAR(c.comp_seconds, 1.98, 0.02);
  EXPECT_NEAR(c.exec_seconds, 9.66, 0.1);
}

// One-row ANDs ship one 16-byte row and cost half a non-XOR in Tcomp
// (2 of a half-gates AND's 4 garbler hashes).
TEST(CostModel, OneRowAndsShipOneRowAtHalfTheCompute) {
  const synth::GateCount two_row{1000, 800, 0};
  const synth::GateCount mixed{1000, 800, 300};
  const NetworkCost a = cost_from_gates(two_row);
  const NetworkCost b = cost_from_gates(mixed);
  EXPECT_DOUBLE_EQ(a.comm_bytes, 800.0 * 32);
  EXPECT_DOUBLE_EQ(b.comm_bytes, 500.0 * 32 + 300.0 * 16);
  const GcCostParams p;
  EXPECT_NEAR(a.comp_seconds - b.comp_seconds,
              150.0 * p.clk_per_non_xor / p.f_cpu_hz, 1e-15);
}

TEST(CostModel, ExecutionIsCommBoundAtPaperBandwidth) {
  for (const auto& z : core::paper_zoo()) {
    const NetworkCost c = cost_of_model(z.base);
    EXPECT_GT(c.comm_bytes / GcCostParams{}.bandwidth_bytes_per_s,
              c.comp_seconds)
        << z.name;
    EXPECT_GT(c.exec_seconds, 0.0);
  }
}

TEST(CostModel, BandwidthScalesExecution) {
  synth::GateCount g{1000000, 1000000};
  GcCostParams fast;
  fast.bandwidth_bytes_per_s = 1e9;
  GcCostParams slow;
  slow.bandwidth_bytes_per_s = 1e6;
  EXPECT_LT(cost_from_gates(g, fast).exec_seconds,
            cost_from_gates(g, slow).exec_seconds);
}

TEST(Zoo, ArchitecturesMatchPaperShapes) {
  const auto zoo = core::paper_zoo();
  ASSERT_EQ(zoo.size(), 4u);
  // B2 = LeNet-300-100: ~267K parameters.
  const size_t b2_params = synth::model_weight_count(zoo[1].base);
  EXPECT_NEAR(static_cast<double>(b2_params), 266610.0, 10.0);
  // B3: 617-50-26.
  const size_t b3_params = synth::model_weight_count(zoo[2].base);
  EXPECT_EQ(b3_params, 617u * 50 + 50 + 50 * 26 + 26);
  // B4: 12.26M MACs worth of parameters.
  const size_t b4_params = synth::model_weight_count(zoo[3].base);
  EXPECT_EQ(b4_params, 5625u * 2000 + 2000 + 2000 * 500 + 500 + 500 * 19 + 19);
}

TEST(Zoo, CompactionReducesGatesRoughlyAsPaper) {
  for (const auto& z : core::paper_zoo()) {
    const auto base = synth::count_model(z.base);
    const auto compact = synth::count_model(z.compact);
    const double improvement =
        static_cast<double>(base.num_non_xor) /
        static_cast<double>(compact.num_non_xor);
    // Within a factor ~1.6 of the paper's reported improvement.
    EXPECT_GT(improvement, z.paper_improvement / 1.6) << z.name;
    EXPECT_LT(improvement, z.paper_improvement * 1.6) << z.name;
  }
}

TEST(Zoo, GateCountsWithinFactorOfPaper) {
  // Our multiplier costs more non-XOR than the paper's synthesized
  // block (see EXPERIMENTS.md); totals must stay within ~4x and scale
  // ordering must match.
  const auto zoo = core::paper_zoo();
  double prev = 0.0;
  for (const auto& z : {zoo[2], zoo[0], zoo[1], zoo[3]}) {  // ascending size
    const auto g = synth::count_model(z.base);
    EXPECT_GT(static_cast<double>(g.num_non_xor), z.paper_base.num_non_xor / 4)
        << z.name;
    EXPECT_LT(static_cast<double>(g.num_non_xor), z.paper_base.num_non_xor * 4)
        << z.name;
    EXPECT_GT(static_cast<double>(g.num_non_xor), prev) << z.name;
    prev = static_cast<double>(g.num_non_xor);
  }
}

TEST(Calibration, MeasuresPositiveRates) {
  const Calibration cal = calibrate(20000);
  EXPECT_GT(cal.non_xor_gates_per_s, 1e4);
  EXPECT_GT(cal.xor_gates_per_s, cal.non_xor_gates_per_s);  // XOR is free
  EXPECT_GT(cal.ot_per_s, 100.0);
  EXPECT_GT(cal.ns_per_non_xor, 0.0);
}

}  // namespace
}  // namespace deepsecure::cost
