// Table 4 reproduction: per-benchmark gate counts, communication,
// computation and execution time WITHOUT pre-processing, using the
// Table 2 cost model at the paper's constants (62/164 clks per gate,
// 3.4 GHz, 81.8 MB/s effective bandwidth).
//
// Additionally executes benchmark 3 (the smallest) through the REAL
// two-party protocol end-to-end — the served stages of secure_infer:
// OT multiplication of the weights, garbling of the share circuits and
// non-linear layers, evaluation, decoding — and reports measured
// bytes/time beside the analytic rows. The live run garbles no
// multiplier, so its gate count is far below the row's.
// (Set DEEPSECURE_SKIP_LIVE=1 to skip the live run.)
#include <cstdio>
#include <cstdlib>

#include "core/benchmark_zoo.h"
#include "core/deepsecure.h"
#include "cost/calibration.h"
#include "data/synthetic.h"
#include "support/table.h"

using namespace deepsecure;

int main() {
  std::printf(
      "Table 4: benchmarks without data/network pre-processing\n"
      "(linear layers accumulate-then-truncate: full 28-bit products are\n"
      "summed per neuron and truncated once)\n\n");

  TablePrinter t({"Name", "#XOR", "#non-XOR", "Comm(MB)", "Comp(s)",
                  "Exec(s)", "paper nXOR", "paper Comm", "paper Exec"});
  for (const auto& z : core::paper_zoo()) {
    const auto g = synth::count_model(z.base);
    const auto c = cost::cost_from_gates(g);
    t.add_row({z.name, TablePrinter::sci(static_cast<double>(g.num_xor)),
               TablePrinter::sci(static_cast<double>(g.num_non_xor)),
               TablePrinter::num(c.comm_bytes / 1e6, 1),
               TablePrinter::num(c.comp_seconds, 2),
               TablePrinter::num(c.exec_seconds, 2),
               TablePrinter::sci(z.paper_base.num_non_xor),
               TablePrinter::num(z.paper_base.comm_mb, 0),
               TablePrinter::num(z.paper_base.exec_s, 2)});
  }
  std::fputs(t.to_string().c_str(), stdout);

  std::printf(
      "\nGate totals exceed the paper's by the MULT ratio documented in\n"
      "bench_table3 (signed windowed multiplier vs. synthesized integer\n"
      "multiplier); relative ordering and the comm-bound execution shape\n"
      "match.\n");

  // Host calibration (Section 3.1.1 subroutines).
  std::printf("\nHost calibration (this machine):\n");
  const auto cal = cost::calibrate(100000);
  std::printf("  non-XOR throughput : %.2fM gates/s (paper: 2.56M)\n",
              cal.non_xor_gates_per_s / 1e6);
  std::printf("  XOR throughput     : %.2fM gates/s (paper: 5.11M)\n",
              cal.xor_gates_per_s / 1e6);
  std::printf("  OT extension       : %.0fK transfers/s\n", cal.ot_per_s / 1e3);

  if (std::getenv("DEEPSECURE_SKIP_LIVE") != nullptr) {
    std::printf("\n[live benchmark-3 run skipped]\n");
    return 0;
  }

  // Live end-to-end run of benchmark 3 (617-50FC-Tanh-26FC) with a
  // trained model on ISOLET-like data.
  std::printf("\nLive GC execution of benchmark 3 (617-50-26, TanhCORDIC):\n");
  const nn::Dataset ds = data::make_isolet_like(390, 5);
  Rng rng(3);
  nn::Network model(nn::Shape{1, 1, 617});
  model.dense(50, rng).act(nn::Act::kTanh).dense(26, rng);
  nn::TrainConfig tc;
  tc.epochs = 12;
  tc.lr = 0.005f;  // wide inputs need a smaller step
  nn::train(model, ds, tc);
  nn::scale_for_fixed(model, ds.x);

  SecureInferenceOptions opt;
  opt.seed = Block{2018, 6};
  const auto res = secure_infer(model, ds.x[0], opt);
  std::printf("  label %zu (fixed-point model: %zu, float model: %zu, true: %zu)\n",
              res.label, nn::fixed_predict(model, ds.x[0], opt.fmt),
              model.predict(ds.x[0]), ds.y[0]);
  std::printf("  non-XOR gates served: %.3e\n",
              static_cast<double>(res.gates.num_non_xor));
  std::printf("  client->server      : %.1f MB (tables+labels)\n",
              static_cast<double>(res.client_to_server_bytes) / 1e6);
  std::printf("  server->client      : %.2f MB (OT columns)\n",
              static_cast<double>(res.server_to_client_bytes) / 1e6);
  std::printf("  wall time (local)   : %.2f s\n", res.wall_seconds);
  std::printf("  garble time         : %.2f s\n",
              res.garbler_trace.sum_garble());
  std::printf("  eval time           : %.2f s\n",
              res.evaluator_trace.sum_eval());
  const double exec_at_paper_bw =
      static_cast<double>(res.client_to_server_bytes) / 81.8e6;
  std::printf("  exec @ 81.8 MB/s    : %.2f s (paper benchmark 3: 2.95 s)\n",
              exec_at_paper_bw);
  return 0;
}
