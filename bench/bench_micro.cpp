// Microbenchmarks of the substrates: AES rates, fixed-key hash, curve
// operations (base-OT cost), OT extension, netlist construction, model
// compilation, and the width-scheduling pass (batch-width histograms +
// garble rates, scheduled vs construction order).
#include <benchmark/benchmark.h>

#include <thread>

#include "circuit/bench_circuits.h"
#include "circuit/schedule.h"
#include "core/benchmark_zoo.h"
#include "crypto/aes128.h"
#include "crypto/hash_backend.h"
#include "crypto/ed25519.h"
#include "crypto/prg.h"
#include "crypto/sha256.h"
#include "gc/garble.h"
#include "gc/ot.h"
#include "gc/protocol.h"
#include "net/null_channel.h"
#include "net/party.h"
#include "runtime/front.h"
#include "synth/activation.h"
#include "synth/layer_circuits.h"
#include "synth/matvec.h"
#include "synth/mult.h"
#include "synth/served.h"

using namespace deepsecure;

namespace {

void BM_Aes128Batch(benchmark::State& state) {
  const Aes128Key key = aes128_expand(Block{1, 2});
  std::vector<Block> blocks(1024);
  Prg prg(Block{3, 4});
  prg.next_blocks(blocks.data(), blocks.size());
  for (auto _ : state) {
    aes128_encrypt_batch(key, blocks.data(), blocks.size());
    benchmark::DoNotOptimize(blocks.data());
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(blocks.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Aes128Batch);

void BM_GcHash(benchmark::State& state) {
  Block x{5, 6};
  uint64_t tweak = 0;
  for (auto _ : state) {
    x = gc_hash(x, tweak++);
    benchmark::DoNotOptimize(x);
  }
  state.counters["hashes/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GcHash);

void BM_GcHashBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Block> in(n), out(n);
  Prg prg(Block{5, 6});
  prg.next_blocks(in.data(), n);
  std::vector<uint64_t> tweaks(n);
  for (size_t i = 0; i < n; ++i) tweaks[i] = i;
  for (auto _ : state) {
    gc_hash_batch(in.data(), tweaks.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["hashes/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GcHashBatch)->Arg(1024);

// Garbling throughput in AND-gates/s, scalar vs batched pipeline, on two
// circuit shapes: "wide" (independent ANDs, full batch windows — the
// matvec/popcount regime) and "chain" (each AND feeds the next, window
// size 1 — the ripple-carry worst case where batching cannot help).
void garble_throughput(benchmark::State& state, const Circuit& c,
                       const GcOptions& opt) {
  NullChannel ch;
  Garbler warm(ch, Block{1, 1}, opt);
  const Labels gz = warm.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = warm.fresh_known_zeros(c.evaluator_inputs.size());
  // Compiler stages precomputed, as in the online phase: scheduled view
  // (when enabled) and the walked order's flush points.
  std::shared_ptr<const Circuit> sched;
  const Circuit& walked = opt.schedule ? *(sched = c.gc_scheduled()) : c;
  (void)walked.gc_flush_points();
  for (auto _ : state) {
    Garbler g(ch, Block{1, 1}, opt);
    benchmark::DoNotOptimize(g.garble(c, gz, ez, {}));
  }
  state.counters["ANDgates/s"] = benchmark::Counter(
      static_cast<double>(c.stats().num_and) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["mean_width"] =
      window_stats(walked, kGcMaxBatchWindow).mean;
}

void garble_throughput(benchmark::State& state, const Circuit& c,
                       GcPipeline pipeline) {
  GcOptions opt;
  opt.pipeline = pipeline;
  garble_throughput(state, c, opt);
}

void BM_GarbleWide(benchmark::State& state) {
  static const Circuit c = bench_circuits::wide_and(1 << 14);
  garble_throughput(state, c, state.range(0) ? GcPipeline::kBatched
                                             : GcPipeline::kScalar);
}
BENCHMARK(BM_GarbleWide)->Arg(0)->Arg(1)->ArgNames({"batched"});

void BM_GarbleChain(benchmark::State& state) {
  static const Circuit c = bench_circuits::and_chain(1 << 12);
  garble_throughput(state, c, state.range(0) ? GcPipeline::kBatched
                                             : GcPipeline::kScalar);
}
BENCHMARK(BM_GarbleChain)->Arg(0)->Arg(1)->ArgNames({"batched"});

// The scheduling payoff on a carry-chain-heavy netlist: a real matvec
// garbled in construction order (windows of ~1-2 ANDs, the BM_GarbleChain
// regime) vs the width-scheduled order (capacity-bound windows).
void BM_GarbleMatvec(benchmark::State& state) {
  static const Circuit c = synth::make_matvec_circuit(16, 8, kDefaultFormat);
  GcOptions opt;
  opt.schedule = state.range(0) != 0;
  garble_throughput(state, c, opt);
}
BENCHMARK(BM_GarbleMatvec)->Arg(0)->Arg(1)->ArgNames({"scheduled"})
    ->Unit(benchmark::kMillisecond);

// One-row ANDs in a MULT-shaped layer: 64 lanes of x (garbler) * w
// (evaluator), the partial products of an FC layer before its adder
// tree. Each weight takes the Booth multiplier: 275 of its 423 ANDs
// read a digit flag of the weight and garble as one row, so windows
// mix one- and two-row gates. Counters: the one-row share, the table
// bytes each AND costs on the wire, and the table bytes per multiplier
// (9,136 with Booth; CI fails above that, so a synthesis change cannot
// quietly bring back the 14,496-byte array multiplier).
void BM_GarbleWeightAnds(benchmark::State& state) {
  static const Circuit c = [] {
    Builder b("weight_ands");
    for (uint32_t lane = 0; lane < 64; ++lane) {
      b.set_lane(lane);
      const synth::Bus x =
          synth::input_fixed(b, Party::kGarbler, kDefaultFormat);
      const synth::Bus w =
          synth::input_fixed(b, Party::kEvaluator, kDefaultFormat);
      b.outputs(synth::mult_fixed(b, x, w, kDefaultFormat.frac_bits));
    }
    return b.build();
  }();
  garble_throughput(state, c, GcOptions{});
  const CircuitStats st = c.stats();
  state.counters["one_row_share"] = static_cast<double>(st.num_and_known) /
                                    static_cast<double>(st.num_and);
  state.counters["table_B_per_and"] = static_cast<double>(st.table_bytes()) /
                                      static_cast<double>(st.num_and);
  state.counters["table_B_per_mult"] =
      static_cast<double>(st.table_bytes()) / 64.0;
}
BENCHMARK(BM_GarbleWeightAnds)->Unit(benchmark::kMillisecond);

// Batch-width histogram per netlist: mean/p50/p95/max AND gates per
// drained window, construction order vs scheduled. The timed body is
// the window_stats scan itself; the counters are the metric.
void batch_width(benchmark::State& state, const Circuit& base) {
  std::shared_ptr<const Circuit> sched;
  const Circuit& c = state.range(0) ? *(sched = base.gc_scheduled()) : base;
  for (auto _ : state)
    benchmark::DoNotOptimize(window_stats(c, kGcMaxBatchWindow));
  const WindowStats ws = window_stats(c, kGcMaxBatchWindow);
  state.counters["mean_width"] = ws.mean;
  state.counters["p50_width"] = static_cast<double>(ws.p50);
  state.counters["p95_width"] = static_cast<double>(ws.p95);
  state.counters["max_width"] = static_cast<double>(ws.max);
  state.counters["windows"] = static_cast<double>(ws.windows);
}

void BM_BatchWidthMatvec(benchmark::State& state) {
  static const Circuit c = synth::make_matvec_circuit(16, 8, kDefaultFormat);
  batch_width(state, c);
}
BENCHMARK(BM_BatchWidthMatvec)->Arg(0)->Arg(1)->ArgNames({"scheduled"});

void BM_BatchWidthAndChain(benchmark::State& state) {
  // Worst case: a pure AND chain has depth = gates; scheduling cannot
  // (and must not pretend to) widen it.
  static const Circuit c = bench_circuits::and_chain(1 << 12);
  batch_width(state, c);
}
BENCHMARK(BM_BatchWidthAndChain)->Arg(0)->Arg(1)->ArgNames({"scheduled"});

// Cost of the compiler stage itself (amortized once per netlist by the
// Circuit cache, paid on model load/reload).
void BM_ScheduleMatvec(benchmark::State& state) {
  static const Circuit c = synth::make_matvec_circuit(16, 8, kDefaultFormat);
  for (auto _ : state) benchmark::DoNotOptimize(schedule_circuit(c));
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(c.gates.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScheduleMatvec)->Unit(benchmark::kMillisecond);

// Set-up cost of the walked view every party builds before its first
// garbling: levelized order plus label-slot renumbering of b3_pp's
// first FC layer. Counters: the layer's wires and the view's slots.
void BM_WalkViewModel(benchmark::State& state) {
  static const Circuit c = [] {
    synth::ModelSpec spec = core::paper_zoo()[2].compact;
    spec.layers.resize(1);
    return synth::compile_model_layers(spec).front();
  }();
  Wire slots = 0;
  for (auto _ : state) {
    const Circuit view = walk_view(c);
    slots = view.num_wires;
    benchmark::DoNotOptimize(view.gates.data());
  }
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(c.gates.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["wires"] = static_cast<double>(c.num_wires);
  state.counters["label_slots"] = static_cast<double>(slots);
}
BENCHMARK(BM_WalkViewModel)->Unit(benchmark::kMillisecond);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<uint8_t> data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_Ed25519ScalarMult(benchmark::State& state) {
  Ed25519Scalar k{};
  k[0] = 0xA7;
  k[31] = 0x12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Point::base_mul(k));
  }
}
BENCHMARK(BM_Ed25519ScalarMult)->Unit(benchmark::kMicrosecond);

void BM_OtExtension(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    run_two_party(
        [&](Channel& ch) {
          Prg prg(Block{5, 6});
          OtExtSender s(ch);
          s.setup(prg);
          s.send_correlated(m, Block{1, 1});
        },
        [&](Channel& ch) {
          Prg prg(Block{7, 8});
          OtExtReceiver r(ch);
          r.setup(prg);
          BitVec choices(m, 1);
          r.recv_correlated(choices);
        });
  }
  state.counters["OT/s"] = benchmark::Counter(
      static_cast<double>(m) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtExtension)->Arg(1 << 14)->Unit(benchmark::kMillisecond)->UseRealTime();

// One correlated-OT batch per iteration on a session whose base OTs ran
// before the timed loop — the request-path cost of the evaluator's
// input labels. The receiver runs on its own thread over an in-memory
// channel; m = 2,128 is the share-bit count of one b3_pp inference (its
// label OTs, 28 per neuron). B_per_ot counts both directions: 8 +
// 128*ceil(m/8) + 16*m bytes.
void BM_OtExtensionOnline(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  ChannelPair pair = make_channel_pair();
  std::thread receiver_thread([&] {
    Prg prg(Block{7, 8});
    OtExtReceiver receiver(*pair.b);
    receiver.setup(prg);
    BitVec choices(m);
    for (auto& b : choices) b = static_cast<uint8_t>(prg.next_u64() & 1u);
    try {
      for (;;) receiver.recv_correlated(choices);
    } catch (const ChannelClosed&) {
      // The sender closed the channel after the timed loop.
    }
  });
  Prg prg(Block{5, 6});
  OtExtSender sender(*pair.a);
  sender.setup(prg);
  const Block delta{0x9e3779b97f4a7c15ull, 0x6a09e667f3bcc909ull};
  const uint64_t b0 = pair.a->bytes_sent() + pair.a->bytes_received();
  for (auto _ : state)
    benchmark::DoNotOptimize(sender.send_correlated(m, delta));
  const uint64_t bytes =
      pair.a->bytes_sent() + pair.a->bytes_received() - b0;
  pair.a->close();
  receiver_thread.join();
  const double ots = static_cast<double>(m) * state.iterations();
  state.counters["OT/s"] = benchmark::Counter(ots, benchmark::Counter::kIsRate);
  state.counters["B_per_ot"] = static_cast<double>(bytes) / ots;
}
BENCHMARK(BM_OtExtensionOnline)->Arg(2128)->Unit(benchmark::kMillisecond)->UseRealTime();

// The layer-0 front of one b3_pp inference (runtime/front.h): 4,928
// vector OTs (one per input bit) carrying 81,312 correlations (5,082
// products) on sessions whose OT setup ran before the timed loop, plus
// both parties' share derivation. The server runs on its own thread
// over an in-memory channel. B_per_product counts both directions:
// (8 + 128*ceil(m/8) + 4*n*products) / products. hashes_per_product
// counts both parties' fixed-key hashes: n*ceil(c_i/4) per input i of
// c_i products for the receiver, twice that for the sender.
void BM_LinearFront(benchmark::State& state) {
  const synth::ModelSpec spec = core::paper_zoo()[2].compact;
  const synth::FrontPlan plan =
      synth::front_plan(spec.input, spec.layers.front(), spec.fmt);
  Prg prg(Block{9, 10});
  std::vector<int64_t> w(plan.weights);
  for (int64_t& v : w) v = static_cast<int16_t>(prg.next_u64());
  BitVec data(plan.ots());
  for (auto& b : data) b = static_cast<uint8_t>(prg.next_u64() & 1u);
  ChannelPair pair = make_channel_pair();
  std::thread server_thread([&] {
    EvaluatorSession session(*pair.b);
    try {
      for (;;)
        benchmark::DoNotOptimize(runtime::front_recv(session, plan, w, {}));
    } catch (const ChannelClosed&) {
      // The client closed the channel after the timed loop.
    }
  });
  GarblerSession session(*pair.a, Block{11, 12});
  const auto front = [&] { return runtime::front_send(session, plan, data); };
  (void)front();  // OT setup
  const uint64_t b0 = pair.a->bytes_sent() + pair.a->bytes_received();
  for (auto _ : state) benchmark::DoNotOptimize(front());
  const uint64_t bytes =
      pair.a->bytes_sent() + pair.a->bytes_received() - b0;
  pair.a->close();
  server_thread.join();
  uint64_t hashes = 0;
  for (size_t i = 0; i < plan.inputs; ++i)
    hashes += (plan.use_first[i + 1] - plan.use_first[i] + 3) / 4;
  hashes *= 3 * spec.fmt.total_bits;
  const double products =
      static_cast<double>(plan.products.size()) * state.iterations();
  state.counters["OT/s"] = benchmark::Counter(
      static_cast<double>(plan.ots()) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["B_per_product"] = static_cast<double>(bytes) / products;
  state.counters["hashes_per_product"] =
      static_cast<double>(hashes) / static_cast<double>(plan.products.size());
}
BENCHMARK(BM_LinearFront)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BuildMult16(benchmark::State& state) {
  using namespace synth;
  for (auto _ : state) {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kDefaultFormat);
    const Bus y = input_fixed(b, Party::kEvaluator, kDefaultFormat);
    b.outputs(mult_fixed(b, x, y, 12));
    benchmark::DoNotOptimize(b.build());
  }
}
BENCHMARK(BM_BuildMult16)->Unit(benchmark::kMicrosecond);

void BM_BuildTanhLut(benchmark::State& state) {
  using namespace synth;
  for (auto _ : state) {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kDefaultFormat);
    b.outputs(activation(b, x, ActKind::kTanhLUT, kDefaultFormat));
    benchmark::DoNotOptimize(b.build());
  }
}
BENCHMARK(BM_BuildTanhLut)->Unit(benchmark::kMillisecond);

// Compile cost of b3_pp's plaintext reference chain
// (compile_model_layers): arg 0 its first FC layer (the paper's
// pre-processed Benchmark 3, most of its gates), arg 1 the whole chain.
// The runtime serves every linear layer by OT multiplication and
// compiles the served stages instead (BM_CompileServed).
void BM_CompileModel(benchmark::State& state) {
  synth::ModelSpec spec = core::paper_zoo()[2].compact;
  if (state.range(0) == 0) spec.layers.resize(1);
  uint64_t gates = 0;
  for (auto _ : state) {
    const std::vector<Circuit> chain = synth::compile_model_layers(spec);
    gates = 0;
    for (const Circuit& c : chain) gates += c.gates.size();
    benchmark::DoNotOptimize(chain.data());
  }
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(gates) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CompileModel)->Arg(0)->Arg(1)->ArgNames({"full_chain"})
    ->Unit(benchmark::kMillisecond);

// Model set-up cost: every runtime party compiles the served stages
// (synth/served.h: per linear layer the share circuit, then the
// non-linear layers after it) before its first session. One arg per
// pre-processed zoo model, 0..3 = b1_pp..b4_pp.
void BM_CompileServed(benchmark::State& state) {
  const synth::ModelSpec spec =
      core::paper_zoo()[static_cast<size_t>(state.range(0))].compact;
  state.SetLabel(spec.name);
  for (auto _ : state)
    benchmark::DoNotOptimize(synth::compile_served(spec).stages.data());
}
BENCHMARK(BM_CompileServed)->DenseRange(0, 3)->ArgNames({"zoo"})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Per-backend rows — the headline table of the pluggable-backend work.
// Registered at runtime (RegisterBenchmark in main) so only the
// backends this host can actually run appear, each under its registry
// name: BM_GcHashBatchBackend/<name>, BM_GarbleWideBackend/<name>.
// ---------------------------------------------------------------------

void hash_batch_backend(benchmark::State& state, const HashBackend* be) {
  constexpr size_t n = 1024;
  std::vector<Block> in(n), out(n);
  Prg prg(Block{5, 6});
  prg.next_blocks(in.data(), n);
  std::vector<uint64_t> tweaks(n);
  for (size_t i = 0; i < n; ++i) tweaks[i] = i;
  for (auto _ : state) {
    gc_hash_batch(*be, in.data(), tweaks.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["hashes/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}

// AND-gates/s through the full batched garbling pipeline with the
// window sweeps pinned to one backend: the scalar row is the old
// portable path, bitsliced8 the new portable floor, aesni8/vaes16 the
// hardware kernels.
void garble_wide_backend(benchmark::State& state, const HashBackend* be) {
  static const Circuit c = bench_circuits::wide_and(1 << 14);
  GcOptions opt;
  opt.hash_backend = be;
  garble_throughput(state, c, opt);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  for (const HashBackend* be : compiled_hash_backends()) {
    if (!be->available()) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_GcHashBatchBackend/") + be->name).c_str(),
        [be](benchmark::State& s) { hash_batch_backend(s, be); });
    benchmark::RegisterBenchmark(
        (std::string("BM_GarbleWideBackend/") + be->name).c_str(),
        [be](benchmark::State& s) { garble_wide_backend(s, be); });
  }
  benchmark::AddCustomContext("hash_backend", deepsecure::hash_backend().name);
  benchmark::AddCustomContext("cpu_features",
                              deepsecure::hash_backend_cpu_features());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
