#include "cost/calibration.h"

#include "circuit/builder.h"
#include "gc/garble.h"
#include "gc/ot.h"
#include "net/party.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace deepsecure::cost {
namespace {

// Wide chains so gate evaluation, not channel latency, dominates.
Circuit make_and_chain(size_t gates) {
  Builder b("cal_and");
  std::vector<Wire> ring;
  for (int i = 0; i < 64; ++i) ring.push_back(b.input(Party::kGarbler));
  for (size_t g = 0; g < gates; ++g) {
    const Wire a = ring[g % ring.size()];
    const Wire y = ring[(g + 7) % ring.size()];
    ring[g % ring.size()] = b.and_(a, y);
  }
  b.output(ring[0]);
  return b.build();
}

Circuit make_xor_chain(size_t gates) {
  Builder b("cal_xor", /*enable_cse=*/false);
  std::vector<Wire> ring;
  for (int i = 0; i < 64; ++i) ring.push_back(b.input(Party::kGarbler));
  for (size_t g = 0; g < gates; ++g) {
    const Wire a = ring[g % ring.size()];
    const Wire y = ring[(g + 7) % ring.size()];
    ring[g % ring.size()] = b.xor_(a, y);
  }
  b.output(ring[0]);
  return b.build();
}

// Gates/s of garble -> evaluate -> decode and (optionally) garbler ns
// per gate, each the fastest of >= 3 runs spanning >= 50 ms, so one
// scheduler stall cannot cover them all. Thread start-up, the input
// label exchange and the walked view are one-off set-up: untimed.
double run_circuit_rate(const Circuit& c, uint64_t gate_count,
                        double* garbler_ns_per_gate) {
  constexpr int kMinRuns = 3;
  constexpr double kMinSpanS = 0.05;
  (void)c.gc_scheduled();
  double best_pipeline = 0.0, best_garble = 0.0;
  const Stopwatch span;
  for (int run = 0; run < kMinRuns || span.seconds() < kMinSpanS; ++run) {
    double pipeline_s = 0.0, garble_s = 0.0;
    run_two_party(
        [&](Channel& ch) {
          Garbler g(ch, Block{123, 321});
          const Labels zeros = g.fresh_zeros(c.garbler_inputs.size());
          g.send_active(BitVec(c.garbler_inputs.size(), 0), zeros);
          Stopwatch sw;
          const Labels out = g.garble(c, zeros, {}, {});
          garble_s = sw.seconds();
          g.decode_outputs(out);
          pipeline_s = sw.seconds();
        },
        [&](Channel& ch) {
          Evaluator e(ch);
          const Labels labels = e.recv_active(c.garbler_inputs.size());
          const Labels out = e.evaluate(c, labels, {}, {});
          e.send_outputs(out);
        });
    if (run == 0 || pipeline_s < best_pipeline) best_pipeline = pipeline_s;
    if (run == 0 || garble_s < best_garble) best_garble = garble_s;
  }
  if (garbler_ns_per_gate != nullptr)
    *garbler_ns_per_gate = best_garble * 1e9 / static_cast<double>(gate_count);
  return static_cast<double>(gate_count) / best_pipeline;
}

}  // namespace

Calibration calibrate(size_t gates) {
  Calibration cal;
  {
    const Circuit c = make_and_chain(gates);
    cal.non_xor_gates_per_s =
        run_circuit_rate(c, c.stats().num_and, &cal.ns_per_non_xor);
  }
  {
    const Circuit c = make_xor_chain(gates);
    cal.xor_gates_per_s =
        run_circuit_rate(c, c.stats().num_xor, &cal.ns_per_xor);
  }
  {
    // One correlated-OT batch after the base-OT setup, timed on the
    // sender: the per-inference label cost (setup is paid per session).
    const size_t m = 20000;
    double seconds = 0;
    run_two_party(
        [&](Channel& ch) {
          Prg prg(Block{5, 6});
          OtExtSender s(ch);
          s.setup(prg);
          Stopwatch sw;
          s.send_correlated(m, Block{1, 1});
          seconds = sw.seconds();
        },
        [&](Channel& ch) {
          Prg prg(Block{7, 8});
          OtExtReceiver r(ch);
          r.setup(prg);
          BitVec choices(m);
          Rng rng(3);
          for (auto& b : choices) b = rng.next_bool();
          r.recv_correlated(choices);
        });
    cal.ot_per_s = static_cast<double>(m) / seconds;
  }
  return cal;
}

}  // namespace deepsecure::cost
