// Table 3 reproduction: XOR / non-XOR gate counts and approximation
// error for every GC-optimized circuit component, printed next to the
// paper's published numbers.
//
// Error convention follows the paper: the representational error of b
// fractional bits (<= 2^-13 at Q(16,12)) is present everywhere; the
// table's "Error" column reports the *approximation* error of each
// variant on top of that, measured here as the mean |circuit - ideal|
// over a dense input sweep (max error is also shown).
#include <cmath>
#include <cstdio>

#include "support/table.h"
#include "synth/activation.h"
#include "synth/divider.h"
#include "synth/matvec.h"
#include "synth/mult.h"
#include "synth/softmax.h"

using namespace deepsecure;
using namespace deepsecure::synth;

namespace {

constexpr FixedFormat kFmt = kDefaultFormat;

struct ErrorStats {
  double mean = 0.0;
  double max = 0.0;
};

ErrorStats activation_error(const Circuit& c, ActKind kind) {
  ErrorStats e;
  size_t n = 0;
  for (double x = -7.95; x <= 7.95; x += 0.0103) {
    const BitVec out = c.eval(Fixed::from_double(x, kFmt).to_bits(), {});
    const double got = Fixed::from_bits(out, kFmt).to_double();
    const double want = activation_ideal(x, kind);
    const double err = std::abs(got - want);
    e.mean += err;
    e.max = std::max(e.max, err);
    ++n;
  }
  e.mean /= static_cast<double>(n);
  return e;
}

std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f%%", 100.0 * v);
  return buf;
}

}  // namespace

int main() {
  std::printf(
      "Table 3: GC-optimized circuit components (Q(16,12); matvec\n"
      "accumulate-then-truncate)\n");
  std::printf("Paper columns are from DAC'18 Table 3; our counts come from\n");
  std::printf("the netlist generator + constant-folding/CSE synthesis.\n\n");

  // "#1-row": the non-XOR gates with an operand the evaluator knows in
  // plaintext (a weight bit, or a Booth digit flag XORed from weight
  // bits), garbled as one 16-byte row instead of two.
  TablePrinter t({"Name", "#XOR", "#non-XOR", "#1-row", "mean err",
                  "max err", "paper XOR", "paper nXOR", "paper err"});

  struct PaperRow {
    ActKind kind;
    const char* paper_name;
    uint64_t pxor, pnon;
    const char* perr;
  };
  const PaperRow acts[] = {
      {ActKind::kTanhLUT, "TanhLUT", 692, 149745, "0"},
      {ActKind::kTanhSeg, "Tanh2.10.12*", 3040, 1746, "0.01%"},
      {ActKind::kTanhPL, "TanhPL", 5, 206, "0.22%"},
      {ActKind::kTanhCORDIC, "TanhCORDIC", 8415, 3900, "0"},
      {ActKind::kSigmoidLUT, "SigmoidLUT", 553, 142523, "0"},
      {ActKind::kSigmoidSeg, "Sigmoid3.10.12*", 3629, 2107, "0.04%"},
      {ActKind::kSigmoidPLAN, "SigmoidPLAN", 1, 73, "0.59%"},
      {ActKind::kSigmoidCORDIC, "SigmoidCORDIC", 8447, 3932, "0"},
  };
  for (const auto& row : acts) {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kFmt);
    b.outputs(activation(b, x, row.kind, kFmt));
    const Circuit c = b.build();
    const auto s = c.stats();
    const ErrorStats e = activation_error(c, row.kind);
    t.add_row({act_kind_name(row.kind), std::to_string(s.num_xor),
               std::to_string(s.num_and), std::to_string(s.num_and_known),
               pct(e.mean), pct(e.max),
               std::to_string(row.pxor), std::to_string(row.pnon),
               row.perr});
  }

  // Arithmetic blocks: exact (error 0 beyond representation).
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kFmt);
    const Bus y = input_fixed(b, Party::kEvaluator, kFmt);
    b.outputs(add(b, x, y));
    const auto s = b.build().stats();
    t.add_row({"ADD", std::to_string(s.num_xor), std::to_string(s.num_and),
               std::to_string(s.num_and_known), "0", "0", "16", "16", "0"});
  }
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kFmt);
    const Bus y = input_fixed(b, Party::kEvaluator, kFmt);
    b.outputs(mult_fixed(b, x, y, kFmt.frac_bits));
    const auto s = b.build().stats();
    t.add_row({"MULT", std::to_string(s.num_xor), std::to_string(s.num_and),
               std::to_string(s.num_and_known), "0", "0", "381", "212", "0"});
  }
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kFmt);
    const Bus y = input_fixed(b, Party::kEvaluator, kFmt);
    b.outputs(div_signed(b, x, y));  // integer DIV block, as in the paper
    const auto s = b.build().stats();
    t.add_row({"DIV", std::to_string(s.num_xor), std::to_string(s.num_and),
               std::to_string(s.num_and_known), "0", "0", "545", "361", "0"});
  }
  {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kFmt);
    b.outputs(relu(b, x));
    const auto s = b.build().stats();
    t.add_row({"ReLu", std::to_string(s.num_xor), std::to_string(s.num_and),
               std::to_string(s.num_and_known), "0", "0", "30", "15", "0"});
  }
  {
    // Softmax (argmax) at n = 10: paper (n-1)*48 XOR, (n-1)*32 non-XOR.
    Builder b;
    std::vector<Bus> vals(10);
    for (auto& bus : vals) bus = input_fixed(b, Party::kGarbler, kFmt);
    b.outputs(argmax(b, vals));
    const auto s = b.build().stats();
    t.add_row({"Softmax10", std::to_string(s.num_xor),
               std::to_string(s.num_and), std::to_string(s.num_and_known),
               "0", "0",
               std::to_string(9 * 48), std::to_string(9 * 32), "0"});
  }
  {
    // A(1x16) x B(16x4): paper 397mn-16n XOR / 228mn-16n non-XOR.
    const Circuit c = make_matvec_circuit(16, 4, kFmt);
    const auto s = c.stats();
    t.add_row({"A1x16.B16x4", std::to_string(s.num_xor),
               std::to_string(s.num_and), std::to_string(s.num_and_known),
               "0", "0",
               std::to_string(397 * 16 * 4 - 16 * 4),
               std::to_string(228 * 16 * 4 - 16 * 4), "0"});
  }

  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\n* Tanh2.10.12 / Sigmoid3.10.12 are realized as 256/128-segment\n"
      "  interpolated tables with the same error budget (DESIGN.md\n"
      "  substitution #1). TanhLUT/SigmoidLUT counts are lower than the\n"
      "  paper's because our structural hashing shares subtrees across\n"
      "  the smooth table. Our MULT covers the signed fixed-point window\n"
      "  [frac, frac+16), which costs more non-XOR than the paper's\n"
      "  integer multiplier; the per-MAC ratio carries into Table 4.\n"
      "  On a weight it is a radix-4 Booth multiplier (a garbled y\n"
      "  takes the 584-gate array). Its #1-row gates AND a Booth digit\n"
      "  flag, an XOR of weight bits the evaluator owns, and ship 16 B\n"
      "  instead of 32 B (half-gates' evaluator half gate).\n"
      "  The CORDIC rows end in one division whose operands satisfy\n"
      "  0 < num <= den < 2^14, taken by a 14-step unsigned\n"
      "  non-restoring divider (div_fraction) instead of the signed\n"
      "  29-bit DIV: the same outputs on every input, at 1225 / 1150\n"
      "  non-XOR instead of 2860 / 2752.\n"
      "  A1x16.B16x4 accumulates-then-truncates: it sums the full\n"
      "  28-bit products of each column (28-bit adders) and truncates\n"
      "  once, as every FC/conv layer does.\n");
  return 0;
}
