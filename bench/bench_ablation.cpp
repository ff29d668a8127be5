// Ablations of the design choices DESIGN.md calls out:
//   A1. synthesis optimizations (constant folding + CSE) on/off
//   A2. activation realization sweep on benchmark 3's full cost
//   A3. projection-only vs pruning-only vs both (benchmark 2 compaction)
//   A4. sequential folding memory footprint (Section 3.5)
//   A5. half-gates vs 4-row / 3-row garbled-table sizing (communication)
#include <cstdio>

#include "core/benchmark_zoo.h"
#include "core/deepsecure.h"
#include "support/table.h"
#include "synth/float_blocks.h"
#include "synth/matvec.h"
#include "synth/mult.h"

using namespace deepsecure;
using namespace deepsecure::synth;

int main() {
  const FixedFormat fmt = kDefaultFormat;

  std::printf("A1. Netlist synthesis optimizations (16-bit MULT block)\n");
  {
    Builder opt("mult_opt", /*enable_cse=*/true);
    const Bus x = input_fixed(opt, Party::kGarbler, fmt);
    const Bus y = input_fixed(opt, Party::kEvaluator, fmt);
    opt.outputs(mult_fixed(opt, x, y, fmt.frac_bits));
    Builder raw("mult_raw", /*enable_cse=*/false);
    const Bus x2 = input_fixed(raw, Party::kGarbler, fmt);
    const Bus y2 = input_fixed(raw, Party::kEvaluator, fmt);
    raw.outputs(mult_fixed(raw, x2, y2, fmt.frac_bits));
    std::printf("  with folding+CSE   : %llu non-XOR\n",
                static_cast<unsigned long long>(opt.and_count()));
    std::printf("  without CSE        : %llu non-XOR\n",
                static_cast<unsigned long long>(raw.and_count()));
  }
  {
    Builder opt("lut_opt", true);
    const Bus x = input_fixed(opt, Party::kGarbler, fmt);
    opt.outputs(activation(opt, x, ActKind::kTanhLUT, fmt));
    Builder raw("lut_raw", false);
    const Bus x2 = input_fixed(raw, Party::kGarbler, fmt);
    raw.outputs(activation(raw, x2, ActKind::kTanhLUT, fmt));
    std::printf("  TanhLUT with CSE   : %llu non-XOR\n",
                static_cast<unsigned long long>(opt.and_count()));
    std::printf("  TanhLUT without    : %llu non-XOR (paper: 149745)\n",
                static_cast<unsigned long long>(raw.and_count()));
  }

  std::printf("\nA2. Activation realization sweep, benchmark 3 totals\n");
  {
    TablePrinter t({"Tanh variant", "#non-XOR", "Comm(MB)", "Exec(s)"});
    for (ActKind k : {ActKind::kTanhLUT, ActKind::kTanhSeg, ActKind::kTanhPL,
                      ActKind::kTanhCORDIC}) {
      ModelSpec m = core::paper_zoo()[2].base;
      for (auto& layer : m.layers)
        if (auto* a = std::get_if<ActLayer>(&layer)) a->kind = k;
      const auto c = cost::cost_of_model(m);
      t.add_row({act_kind_name(k),
                 TablePrinter::sci(static_cast<double>(c.num_non_xor)),
                 TablePrinter::num(c.comm_bytes / 1e6, 1),
                 TablePrinter::num(c.exec_seconds, 2)});
    }
    std::fputs(t.to_string().c_str(), stdout);
  }

  std::printf("\nA3. Pre-processing decomposition (benchmark 2)\n");
  {
    const auto zoo = core::paper_zoo();
    const ModelSpec base = zoo[1].base;
    const ModelSpec both = zoo[1].compact;

    // Projection-only: reduced input, dense layers.
    ModelSpec proj = base;
    proj.input = Shape3{1, 1, 196};
    std::get<FcLayer>(proj.layers[0]) = FcLayer{300, {}, true};
    // Pruning-only: original input, masked layers (same keep as compact).
    ModelSpec prune = both;
    prune.input = base.input;
    auto& fc0 = std::get<FcLayer>(prune.layers[0]);
    fc0.mask = preprocess::random_mask(300, 784, 0.32, 999);

    TablePrinter t({"Variant", "#non-XOR", "Exec(s)", "vs base"});
    const auto cb = cost::cost_of_model(base);
    for (const auto& [name, spec] :
         std::vector<std::pair<std::string, const ModelSpec*>>{
             {"base", &base},
             {"projection only", &proj},
             {"pruning only", &prune},
             {"both (Table 5)", &both}}) {
      const auto c = cost::cost_of_model(*spec);
      t.add_row({name, TablePrinter::sci(static_cast<double>(c.num_non_xor)),
                 TablePrinter::num(c.exec_seconds, 2),
                 TablePrinter::num(cb.exec_seconds / c.exec_seconds, 2) + "x"});
    }
    std::fputs(t.to_string().c_str(), stdout);
  }

  std::printf("\nA4. Sequential folding memory footprint (Section 3.5)\n");
  {
    // 256-term dot product: monolithic vs folded (1 MAC + register).
    const size_t terms = 256;
    Builder mono("dot_mono");
    std::vector<Bus> xs(terms), ws(terms);
    for (auto& bus : xs) bus = input_fixed(mono, Party::kGarbler, fmt);
    for (auto& bus : ws) bus = input_fixed(mono, Party::kEvaluator, fmt);
    mono.outputs(dot(mono, xs, ws, fmt.frac_bits));
    const Circuit mc = mono.build();
    const Circuit step = make_mac_step_circuit(fmt);
    std::printf("  monolithic: %u wires live at once\n", mc.num_wires);
    std::printf("  folded:     %u wires/cycle x %zu cycles (%.1fx smaller"
                " footprint)\n",
                step.num_wires, terms,
                static_cast<double>(mc.num_wires) / step.num_wires);
    std::printf("  total gate work identical within %0.1f%%\n",
                100.0 * std::abs(1.0 - static_cast<double>(
                    step.stats().num_and * terms) / mc.stats().num_and));
  }

  std::printf("\nA5. Fixed-point vs floating-point datapath (Section 3.6)\n");
  {
    const FloatFormat ff = kBFloat16;
    Builder fa;
    const Bus x1 = input_bus(fa, Party::kGarbler, ff.total_bits());
    const Bus y1 = input_bus(fa, Party::kEvaluator, ff.total_bits());
    fa.outputs(float_add(fa, x1, y1, ff));
    Builder fm;
    const Bus x2 = input_bus(fm, Party::kGarbler, ff.total_bits());
    const Bus y2 = input_bus(fm, Party::kEvaluator, ff.total_bits());
    fm.outputs(float_mul(fm, x2, y2, ff));
    const BlockCosts& fx = block_costs(fmt);
    std::printf("  ADD : %llu non-XOR fixed Q(16,12)  vs %llu float bf16"
                " (%.1fx)\n",
                static_cast<unsigned long long>(fx.add.num_non_xor),
                static_cast<unsigned long long>(fa.and_count()),
                static_cast<double>(fa.and_count()) / fx.add.num_non_xor);
    std::printf("  MULT: %llu non-XOR fixed Q(16,12)  vs %llu float bf16"
                " (%.2fx)\n",
                static_cast<unsigned long long>(fx.mult.num_non_xor),
                static_cast<unsigned long long>(fm.and_count()),
                static_cast<double>(fm.and_count()) / fx.mult.num_non_xor);
    std::printf("  -> per-MAC costs end up comparable, but Q(16,12) carries\n"
                "     12 fraction bits vs bf16's 7; floats buy dynamic range\n"
                "     (no wrap-around), not precision, in this regime.\n");
  }

  std::printf("\nA6. Garbled-table sizing per AND gate (communication)\n");
  {
    const auto g = count_model(core::paper_zoo()[2].base);
    const double classic = static_cast<double>(g.num_non_xor) * 4 * 16;
    const double row_red = static_cast<double>(g.num_non_xor) * 3 * 16;
    const double half = static_cast<double>(g.num_non_xor) * 2 * 16;
    const double one_row = static_cast<double>(g.comm_bytes());
    std::printf("  classic 4-row   : %.1f MB\n", classic / 1e6);
    std::printf("  row-reduction   : %.1f MB (-25%%)\n", row_red / 1e6);
    std::printf("  half-gates      : %.1f MB (-25%% more)\n", half / 1e6);
    std::printf("  + 1-row on known: %.1f MB (-%.0f%%; what we ship: %llu of"
                " %llu ANDs read a known weight digit)\n",
                one_row / 1e6, 100.0 * (1.0 - one_row / half),
                static_cast<unsigned long long>(g.num_one_row),
                static_cast<unsigned long long>(g.num_non_xor));
  }
  return 0;
}
