// Load generator + overlap probe for the streaming inference runtime.
// Standalone binary (no google-benchmark): emits machine-readable JSON
// so the perf trajectory can accumulate as BENCH_*.json files.
//
//   ./loadgen_inference [--sessions N] [--requests M] [--threads T]
//                       [--eval-threads E] [--layers L] [--gates G]
//                       [--out FILE] [--precomputed]
//                       [--strict-precomputed]
//                       [--shard-threads S] [--async-prefetch]
//                       [--scaling] [--trace FILE] [--chaos SEED:RATE]
//
// Measurements:
//   1. overlap: one streaming session over TCP loopback garbling a
//      chain of wide layers. Reports wall-clock vs the sum of the
//      garble / transfer / eval phase times — streaming pipelining makes
//      wall < phase_sum (the phases overlap in time across the two
//      endpoints).
//   2. offline: time-to-first-warm-artifact on the same wide chain —
//      one garble_offline sequentially vs with its batch windows
//      sharded across `--shard-threads` workers (default probe: 4).
//      The sharded artifact is verified byte-identical before the
//      numbers are reported.
//   3. load: an InferenceServer serving N concurrent TCP sessions of M
//      inferences each; reports sessions/sec, requests/sec and p50/p95
//      per-inference latency.
//   4. with --precomputed, the same load again from a warm MaterialPool
//      (the offline/online split): artifacts are garbled and pushed
//      ahead of the timed window, so each request is label transfer +
//      evaluation only. Emits pooled vs on-demand p50/p95 side by side
//      plus time_to_first_warm_s (slowest session's first warm
//      artifact) and pool_hit_rate; --shard-threads shards each pool
//      garbling, --async-prefetch refills through the v4 prefetch lane
//      concurrently with inference traffic. --strict-precomputed fails
//      the run when warm-pool p50 is not below the on-demand p50
//      (local acceptance gate — CI runs non-strict because shared
//      runners make timing flaky).
//   4b. data_plane: the on-demand load's send and copy counters
//      (bytes_copied_per_table_byte is 0 on the zero-copy table plane).
//   5. with --scaling, a concurrency sweep (16/64/256/1024 sessions,
//      one request each): sessions/sec and p95 as concurrency grows,
//      with the serving thread count per point (the reactor's fixed
//      worker pool plus its loop thread).
//   6. with --chaos SEED:RATE, a deterministic fault-injection soak:
//      both endpoints' transports are wrapped in a seeded FaultChannel
//      (net/fault_channel.h) injecting short I/O, delays, stalls, and
//      connection resets, while clients run with a self-healing retry
//      budget. The run HARD-FAILS unless every inference completes
//      byte-correct against the plaintext reference — the acceptance
//      gate that recovery never replays partially consumed garbled
//      material. The same seed reproduces the same fault plan.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/bench_circuits.h"
#include "crypto/hash_backend.h"
#include "fixed/fixed_point.h"
#include "gc/material.h"
#include "net/tcp_channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "runtime/streaming.h"
#include "support/bits.h"
#include "support/rng.h"
#include "support/stopwatch.h"

using namespace deepsecure;

namespace {

struct Args {
  size_t sessions = 4;
  size_t requests = 2;
  size_t threads = 2;
  size_t eval_threads = 0;  // evaluator-side window sharding
  size_t layers = 3;
  size_t gates = 4096;
  std::string out;
  // Fail (exit 1) when wall >= phase sum. Off by default: on an
  // oversubscribed CI runner the tiny workload's timing is noisy, and a
  // perf property should not train anyone to ignore a red smoke job.
  // The acceptance run uses --strict-overlap locally.
  bool strict_overlap = false;
  // Also measure the warm-MaterialPool (offline/online split) load.
  bool precomputed = false;
  // Fail (exit 1) when warm-pool p50 >= on-demand p50.
  bool strict_precomputed = false;
  // Window-shard threads inside each offline garbling (MaterialPool
  // producers and the offline probe). 0 = single-threaded artifacts
  // (the probe still reports a 4-way sharded reference).
  size_t shard_threads = 0;
  // Refill server-side stores through the dedicated v4 prefetch lane
  // (a second connection per session) instead of synchronous pushes.
  bool async_prefetch = false;
  // Concurrency sweep (measurement 5 above).
  bool scaling = false;
  // Enable the span tracer for the whole run and write the collected
  // events as chrome://tracing JSON to this file (src/obs/trace.h).
  std::string trace;
  // Deterministic chaos soak (measurement 6): fault-plan seed and
  // per-I/O injection probability. rate 0 = off.
  uint64_t chaos_seed = 0;
  double chaos_rate = 0.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--sessions") a.sessions = std::stoul(next());
    else if (k == "--requests") a.requests = std::stoul(next());
    else if (k == "--threads") a.threads = std::stoul(next());
    else if (k == "--eval-threads") a.eval_threads = std::stoul(next());
    else if (k == "--layers") a.layers = std::stoul(next());
    else if (k == "--gates") a.gates = std::stoul(next());
    else if (k == "--out") a.out = next();
    else if (k == "--strict-overlap") a.strict_overlap = true;
    else if (k == "--precomputed") a.precomputed = true;
    else if (k == "--strict-precomputed") {
      a.precomputed = true;
      a.strict_precomputed = true;
    }
    else if (k == "--shard-threads") a.shard_threads = std::stoul(next());
    else if (k == "--async-prefetch") a.async_prefetch = true;
    else if (k == "--scaling") a.scaling = true;
    else if (k == "--trace") a.trace = next();
    else if (k == "--chaos") {
      const std::string v = next();
      const size_t colon = v.find(':');
      if (colon == std::string::npos)
        throw std::runtime_error("--chaos expects SEED:RATE");
      a.chaos_seed = std::stoull(v.substr(0, colon));
      a.chaos_rate = std::stod(v.substr(colon + 1));
      if (a.chaos_rate <= 0.0 || a.chaos_rate >= 1.0)
        throw std::runtime_error("--chaos rate must be in (0, 1)");
    }
    else throw std::runtime_error("unknown flag " + k);
  }
  return a;
}

struct OverlapResult {
  size_t layers = 0, gates = 0, threads = 0;
  double wall_s = 0, garble_s = 0, transfer_s = 0, eval_s = 0, setup_s = 0;
  double phase_sum() const { return garble_s + transfer_s + eval_s; }
};

// One streaming session over TCP loopback on a chain of wide layers;
// verifies the protocol output against plaintext evaluation.
OverlapResult measure_overlap(const Args& args) {
  std::vector<Circuit> chain;
  for (size_t l = 0; l < args.layers; ++l)
    chain.push_back(bench_circuits::wide_chain_layer(args.gates));

  Rng rng(4242);
  BitVec data(chain.front().garbler_inputs.size());
  for (auto& b : data) b = rng.next_bool();
  BitVec weights;
  for (const Circuit& c : chain)
    for (size_t i = 0; i < c.evaluator_inputs.size(); ++i)
      weights.push_back(rng.next_bool() ? 1 : 0);

  // Plaintext reference.
  BitVec expect = data;
  size_t consumed = 0;
  for (const Circuit& c : chain) {
    const BitVec w(weights.begin() + static_cast<ptrdiff_t>(consumed),
                   weights.begin() +
                       static_cast<ptrdiff_t>(consumed + c.evaluator_inputs.size()));
    consumed += c.evaluator_inputs.size();
    expect = c.eval(expect, w);
  }

  runtime::StreamConfig cfg;
  cfg.garble_threads = args.threads;
  cfg.eval_threads = args.eval_threads;

  TcpListener listener(0);
  SessionTrace g_trace, e_trace;
  BitVec got;
  double wall = 0;
  double warm_eval = 0;

  auto sum_ot = [](const SessionTrace& t) {
    double s = 0;
    for (const auto& p : t.phases) s += p.ot_s;
    return s;
  };

  // Two inferences on one session: the first pays base-OT setup and
  // warms caches, the second is the steady-state streaming measurement
  // (the paper's many-samples-per-session premise). Exceptions on either
  // thread are captured and rethrown after the join — an escape from the
  // server lambda, or a client throw skipping the join, would terminate.
  std::exception_ptr server_err, client_err;
  std::thread server_thread([&] {
    try {
      TcpChannel ch = listener.accept();
      runtime::StreamingEvaluator eval(ch, cfg);
      eval.run_chain(chain, weights);
      warm_eval = eval.trace().sum_eval();
      eval.run_chain(chain, weights);
      e_trace = eval.trace();
    } catch (...) {
      server_err = std::current_exception();
    }
  });
  double warm_garble = 0, warm_ot = 0;
  try {
    TcpChannel ch = TcpChannel::connect("127.0.0.1", listener.port());
    runtime::StreamingGarbler garbler(ch, Block{2026, 727}, cfg);
    garbler.run_chain(chain, data);  // warmup (includes OT setup)
    warm_garble = garbler.trace().sum_garble();
    warm_ot = sum_ot(garbler.trace());
    Stopwatch sw;
    got = garbler.run_chain(chain, data);
    wall = sw.seconds();
    g_trace = garbler.trace();
  } catch (...) {
    client_err = std::current_exception();
    listener.close();  // unblock a server still waiting in accept
  }
  server_thread.join();
  if (client_err) std::rethrow_exception(client_err);
  if (server_err) std::rethrow_exception(server_err);
  if (got != expect)
    throw std::runtime_error("overlap probe: protocol output != plaintext");

  OverlapResult r;
  r.layers = args.layers;
  r.gates = args.gates;
  r.threads = args.threads;
  r.wall_s = wall;
  r.garble_s = g_trace.sum_garble() - warm_garble;   // second run only
  r.eval_s = e_trace.sum_eval() - warm_eval;
  r.setup_s = g_trace.setup_s;
  r.transfer_s = sum_ot(g_trace) - warm_ot;
  return r;
}

// Time-to-first-warm-artifact probe: the offline-phase scaling headline.
// One garble_offline over the (big) overlap chain, sequential vs window-
// sharded across a ThreadPool — the cold-start/model-reload latency a
// MaterialPool with shard_threads pays for its FIRST artifact.
struct OfflineResult {
  size_t layers = 0, gates = 0, shard_threads = 0;
  double ttfw_sequential_s = 0;  // single-threaded garble_offline
  double ttfw_sharded_s = 0;     // windows sharded across the pool
  double speedup() const {
    return ttfw_sharded_s > 0 ? ttfw_sequential_s / ttfw_sharded_s : 0;
  }
};

OfflineResult measure_offline(const Args& args) {
  std::vector<Circuit> chain;
  for (size_t l = 0; l < args.layers; ++l)
    chain.push_back(bench_circuits::wide_chain_layer(args.gates));

  const GcOptions opt;
  // Warm the schedule/flush-point caches and code paths outside the
  // timed region (a cold MaterialPool shares them the same way: the
  // server warms the schedule cache computing its fingerprint).
  (void)garble_offline(chain, Block{11, 13}, opt);

  Stopwatch sw;
  const GarbledMaterial seq = garble_offline(chain, Block{21, 42}, opt);
  const double seq_s = sw.seconds();

  const size_t shards = args.shard_threads > 0 ? args.shard_threads : 4;
  ThreadPool pool(shards);
  GcOptions sopt = opt;
  sopt.pool = &pool;
  sw.restart();
  const GarbledMaterial shd = garble_offline(chain, Block{21, 42}, sopt);
  const double shd_s = sw.seconds();

  // The speedup only counts if the artifact is the same artifact.
  if (shd.tables != seq.tables || !(shd.delta == seq.delta) ||
      shd.data_zeros != seq.data_zeros || shd.eval_zeros != seq.eval_zeros ||
      shd.decode_bits != seq.decode_bits ||
      shd.fingerprint != seq.fingerprint)
    throw std::runtime_error(
        "offline probe: sharded artifact is not byte-identical");

  OfflineResult r;
  r.layers = args.layers;
  r.gates = args.gates;
  r.shard_threads = shards;
  r.ttfw_sequential_s = seq_s;
  r.ttfw_sharded_s = shd_s;
  return r;
}

// Percentiles of a SORTED sample (nearest-rank, matching the p50/p95
// convention the earlier BENCH files established).
double pct(const std::vector<double>& sorted, size_t p) {
  if (sorted.empty()) return 0.0;
  return sorted[std::min(sorted.size() - 1, (sorted.size() * p) / 100)];
}

// Tail percentile of a SORTED sample, or nullopt when fewer than ten
// samples lie beyond it: the p99 of 8 requests is only their maximum.
std::optional<double> tail_pct(const std::vector<double>& sorted, size_t p) {
  constexpr size_t kMinBeyond = 10;
  const size_t rank = (sorted.size() * p) / 100;
  if (rank + kMinBeyond >= sorted.size()) return std::nullopt;
  return sorted[rank];
}

// Snapshot of the process-wide data-plane counters (net/channel.h,
// support/buffer_pool.h, net/ring_channel.h). Deltas bracket each load
// run — the runs are sequential, so a delta is that run's traffic.
struct NetCounters {
  uint64_t bytes_copied = 0, sends_vectored = 0, syscalls_send = 0;
  uint64_t slab_acquire = 0, slab_recycle = 0, chunk_reuse = 0;
  // Resilience counters (fault injection + self-healing), so every
  // BENCH row records whether its numbers were taken under chaos and
  // how much recovery happened inside the run.
  uint64_t fault_injected = 0, fault_reset = 0, retries = 0, recovered = 0,
           poisoned = 0;
  static NetCounters snap() {
    auto& r = obs::Registry::global();
    NetCounters c;
    c.bytes_copied = r.counter("net.bytes_copied").value();
    c.sends_vectored = r.counter("net.sends_vectored").value();
    c.syscalls_send = r.counter("net.syscalls_send").value();
    c.slab_acquire = r.counter("pool.slab_acquire").value();
    c.slab_recycle = r.counter("pool.slab_recycle").value();
    c.chunk_reuse = r.counter("net.ring.chunk_reuse").value();
    c.fault_injected = r.counter("fault.injected").value();
    c.fault_reset = r.counter("fault.reset").value();
    c.retries = r.counter("client.retries").value();
    c.recovered = r.counter("client.sessions_recovered").value();
    c.poisoned = r.counter("pool.poisoned").value();
    return c;
  }
  NetCounters operator-(const NetCounters& b) const {
    return NetCounters{bytes_copied - b.bytes_copied,
                       sends_vectored - b.sends_vectored,
                       syscalls_send - b.syscalls_send,
                       slab_acquire - b.slab_acquire,
                       slab_recycle - b.slab_recycle,
                       chunk_reuse - b.chunk_reuse,
                       fault_injected - b.fault_injected,
                       fault_reset - b.fault_reset,
                       retries - b.retries,
                       recovered - b.recovered,
                       poisoned - b.poisoned};
  }
};

struct LoadResult {
  size_t sessions = 0, requests = 0;
  double wall_s = 0;
  size_t samples = 0;
  double p50_ms = 0;
  std::optional<double> p95_ms, p99_ms;
  // Accept-to-first-byte queueing delay: how long a session waited from
  // connect() to a served handshake ack. Under the gated listener this
  // is where backlog time shows up — the client-side complement of the
  // server's phase accounting.
  size_t connect_samples = 0;
  double connect_p50_ms = 0;
  std::optional<double> connect_p95_ms, connect_p99_ms;
  double offline_s = 0;  // pooled mode: prefetch (offline phase) time
  double ttfw_s = 0;     // pooled mode: slowest session's first warm artifact
  size_t serving_threads = 0;  // reactor workers + the loop thread
  uint64_t served = 0;
  uint64_t pooled = 0;
  std::string server_stats;  // InferenceServer::stats_json() post-run
  // Data-plane accounting for this run (process-wide counter deltas).
  NetCounters net;
  uint64_t table_bytes = 0;   // garbled-table payload shipped (expected)
  double bytes_copied_per_table_byte() const {
    return table_bytes > 0 ? double(net.bytes_copied) / double(table_bytes)
                           : 0.0;
  }
  double requests_per_s() const { return wall_s > 0 ? double(served) / wall_s : 0; }
  double sessions_per_s() const {
    return wall_s > 0 ? double(sessions) / wall_s : 0;
  }
  double pool_hit_rate() const {
    return served > 0 ? double(pooled) / double(served) : 0;
  }
};

synth::ModelSpec load_spec() {
  synth::ModelSpec spec;
  spec.name = "loadgen_mlp";
  spec.input = synth::Shape3{1, 1, 8};
  spec.layers.push_back(synth::FcLayer{6, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

// One load sweep. `pooled` switches the clients to the offline/online
// split: each session garbles its artifacts in the background, pushes
// them to the server *before* the timed window (offline phase, recorded
// separately), and the timed requests run the online phase only.
LoadResult measure_load(const Args& args, bool pooled) {
  const synth::ModelSpec spec = load_spec();
  Rng rng(99);
  BitVec weights;
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i) {
    const double v = (double(rng.next_below(2001)) - 1000.0) / 5000.0;
    const BitVec b = Fixed::from_double(v, spec.fmt).to_bits();
    weights.insert(weights.end(), b.begin(), b.end());
  }

  runtime::ServerConfig scfg;
  scfg.max_sessions = std::max<size_t>(args.sessions, 1);
  scfg.max_prefetch = std::max<size_t>(args.requests, 1);
  scfg.stream.eval_threads = args.eval_threads;
  // A 1024-client thundering connect overruns the default backlog; the
  // kernel clamps to somaxconn.
  scfg.backlog = static_cast<int>(
      std::min<size_t>(std::max<size_t>(args.sessions, 64), 4096));
  runtime::InferenceServer server(spec, weights, scfg);
  server.start();

  std::vector<std::vector<double>> latencies(args.sessions);
  std::vector<double> connect_ms(args.sessions, 0.0);
  std::vector<double> offline(args.sessions, 0.0);
  std::vector<double> ttfw(args.sessions, 0.0);
  std::vector<std::exception_ptr> errors(args.sessions);
  std::vector<std::thread> clients;
  // In pooled mode every session finishes its offline prefetch before
  // the timed window opens, so wall_s / requests_per_s measure the
  // online phase only (offline cost is reported as offline_prefetch_s).
  std::atomic<size_t> warmed{0};
  std::atomic<bool> go{!pooled};
  const NetCounters net_before = NetCounters::snap();
  Stopwatch wall;
  for (size_t s = 0; s < args.sessions; ++s) {
    clients.emplace_back([&, s] {
      try {
      runtime::ClientConfig ccfg;
      ccfg.seed = Block{1000 + s, 2000 + s};  // per-session PRG seed
      if (pooled) {
        ccfg.pool_target = args.requests;
        ccfg.pool_producers = 2;
        ccfg.pool_shard_threads = args.shard_threads;
        ccfg.async_prefetch = args.async_prefetch;
        ccfg.auto_top_up = false;  // every timed request hits warm material
      }
      // Connect-to-ready: construction blocks through connect + hello +
      // ack, so this stopwatch captures the accept-to-first-byte
      // queueing delay (listen-backlog wait included) per session.
      Stopwatch connect_sw;
      runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
      connect_ms[s] = connect_sw.seconds() * 1e3;
      if (pooled) {
        Stopwatch osw;
        // Time-to-first-warm-artifact: pool production starts at client
        // construction; the first artifact may land in the local pool
        // or (async lane) already on the server.
        while (client.pool_ready() == 0 && client.prefetched() == 0) {
          if (osw.seconds() > 120.0)
            throw std::runtime_error("loadgen: first warm artifact stalled");
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        ttfw[s] = osw.seconds();
        client.prefetch(args.requests);
        offline[s] = osw.seconds();  // the actual offline push cost
        // Separately, let the pool's background refill (triggered by
        // the acquires above) finish, so no garbling competes for CPU
        // inside the timed online window; this wait is bench hygiene,
        // not offline-phase cost. Sleep-poll: spinning would steal
        // cycles from the very producers being waited on. Deadlined: a
        // parked producer failure is only rethrown on acquire, which
        // this loop never calls — without a bound it would hang CI.
        Stopwatch refill;
        while (client.pool_ready() < args.requests) {
          if (refill.seconds() > 120.0)
            throw std::runtime_error("loadgen: pool refill stalled");
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        warmed.fetch_add(1);
        while (!go.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Rng srng(31 * s + 7);
      for (size_t r = 0; r < args.requests; ++r) {
        std::vector<float> x(8);
        for (auto& v : x)
          v = (float(srng.next_below(2001)) - 1000.0f) / 2500.0f;
        Stopwatch sw;
        (void)client.infer(x);
        latencies[s].push_back(sw.seconds() * 1e3);
      }
      client.close();
      } catch (...) {
        // A throw escaping the thread would terminate the process;
        // park it (main rethrows after join) and, in pooled mode,
        // unblock the warm barrier so the other sessions can finish.
        errors[s] = std::current_exception();
        warmed.fetch_add(1);
      }
    });
  }
  if (pooled) {
    while (warmed.load() < args.sessions)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    wall.restart();  // timed window starts with every pool warm
    go.store(true);
  }
  for (auto& t : clients) t.join();
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
  LoadResult r;
  r.wall_s = wall.seconds();
  // stop() drains every session through teardown, so the snapshot below
  // has complete session_wall observations for the accounting block.
  server.stop();
  r.server_stats = server.stats_json();
  r.net = NetCounters::snap() - net_before;
  // Garbled-table payload per inference, mirroring the server's
  // expected_table_bytes_ accounting over every served stage's chain
  // (synth/served.h).
  uint64_t per_infer = 0;
  for (const synth::ServedStage& stage : synth::compile_served(spec).stages)
    per_infer += material_stream_bytes(stage.chain);
  r.table_bytes = per_infer * server.inferences_served();

  const size_t hc = std::thread::hardware_concurrency();
  const size_t workers =
      scfg.workers > 0 ? scfg.workers : std::max<size_t>(2, 2 * hc);
  r.serving_threads = workers + 1;  // + the reactor loop

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  r.sessions = args.sessions;
  r.requests = args.requests;
  r.served = server.inferences_served();
  r.pooled = server.inferences_pooled();
  // Sessions prefetch concurrently: the offline phase's wall cost is
  // the slowest session's, not the sum (same for the first-warm time).
  for (double o : offline) r.offline_s = std::max(r.offline_s, o);
  for (double t : ttfw) r.ttfw_s = std::max(r.ttfw_s, t);
  r.samples = all.size();
  if (!all.empty()) r.p50_ms = all[all.size() / 2];
  r.p95_ms = tail_pct(all, 95);
  r.p99_ms = tail_pct(all, 99);
  std::sort(connect_ms.begin(), connect_ms.end());
  r.connect_samples = connect_ms.size();
  r.connect_p50_ms = pct(connect_ms, 50);
  r.connect_p95_ms = tail_pct(connect_ms, 95);
  r.connect_p99_ms = tail_pct(connect_ms, 99);
  if (r.served != uint64_t(args.sessions * args.requests))
    throw std::runtime_error("loadgen: server served fewer inferences than sent");
  if (pooled && r.pooled != r.served)
    throw std::runtime_error("loadgen: pooled run fell back to on-demand");
  return r;
}

// Concurrency sweep: one request per session (session churn —
// handshake + a single on-demand inference — is what stresses the
// serving core, not per-request crypto volume). The sweep reuses
// measure_load, so every row is also correctness-checked end to end.
std::vector<LoadResult> measure_scaling(const Args& base) {
  std::vector<LoadResult> rows;
  for (size_t n : {size_t{16}, size_t{64}, size_t{256}, size_t{1024}}) {
    Args a = base;
    a.sessions = n;
    a.requests = 1;
    std::fprintf(stderr, "loadgen: scaling, %zu sessions...\n", n);
    rows.push_back(measure_load(a, /*pooled=*/false));
  }
  return rows;
}

// Deterministic chaos soak (measurement 6): every transport on both
// endpoints is wrapped in a seeded FaultChannel and the clients run
// with a self-healing retry budget. Hard-fails unless every inference
// completes AND matches the plaintext reference: a recovered session
// must draw fresh garbled material (the material_poisoned counter in
// the JSON is the audit trail), and a replay of partially consumed
// labels would surface as a wrong result here.
struct ChaosResult {
  size_t sessions = 0, requests = 0;
  uint64_t completed = 0;
  double wall_s = 0;
  NetCounters net;
  uint64_t server_shed = 0;
  std::string server_stats;
};

ChaosResult measure_chaos(const Args& args) {
  const synth::ModelSpec spec = load_spec();
  Rng rng(99);
  BitVec weights;
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i) {
    const double v = (double(rng.next_below(2001)) - 1000.0) / 5000.0;
    const BitVec b = Fixed::from_double(v, spec.fmt).to_bits();
    weights.insert(weights.end(), b.begin(), b.end());
  }
  const std::vector<Circuit> chain = synth::compile_model_layers(spec);
  // Plaintext reference label (same encoding as client.infer).
  auto plain_label = [&](const std::vector<float>& x) {
    BitVec bits;
    for (float v : x) {
      const BitVec b =
          Fixed::from_double(static_cast<double>(v), spec.fmt).to_bits();
      bits.insert(bits.end(), b.begin(), b.end());
    }
    size_t consumed = 0;
    for (const Circuit& c : chain) {
      const BitVec w(
          weights.begin() + static_cast<ptrdiff_t>(consumed),
          weights.begin() +
              static_cast<ptrdiff_t>(consumed + c.evaluator_inputs.size()));
      consumed += c.evaluator_inputs.size();
      bits = c.eval(bits, w);
    }
    return static_cast<size_t>(from_bits(bits));
  };

  runtime::ServerConfig scfg;
  scfg.max_sessions = std::max<size_t>(args.sessions, 1);
  scfg.max_prefetch = std::max<size_t>(args.requests, 1);
  scfg.stream.eval_threads = args.eval_threads;
  scfg.chaos.seed = args.chaos_seed;
  scfg.chaos.rate = args.chaos_rate;
  runtime::InferenceServer server(spec, weights, scfg);
  server.start();

  std::vector<std::exception_ptr> errors(args.sessions);
  std::atomic<uint64_t> completed{0};
  const NetCounters before = NetCounters::snap();
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (size_t s = 0; s < args.sessions; ++s) {
    clients.emplace_back([&, s] {
      try {
        runtime::ClientConfig ccfg;
        ccfg.seed = Block{7000 + s, 9000 + s};
        ccfg.pool_target = 2;  // exercise the poisoning path on recovery
        ccfg.async_prefetch = args.async_prefetch;
        // Distinct plan seeds per endpoint: the server's and client's
        // fault sequences stay decorrelated but both reproducible.
        ccfg.chaos.seed = args.chaos_seed ^ 0xc11e47ull;
        ccfg.chaos.rate = args.chaos_rate;
        ccfg.max_retries = 16;
        ccfg.backoff_base_ms = 1;
        ccfg.backoff_cap_ms = 50;
        runtime::InferenceClient client("127.0.0.1", server.port(), spec,
                                        ccfg);
        Rng srng(53 * s + 11);
        for (size_t r = 0; r < args.requests; ++r) {
          std::vector<float> x(8);
          for (auto& v : x)
            v = (float(srng.next_below(2001)) - 1000.0f) / 2500.0f;
          const size_t got = client.infer(x);
          if (got != plain_label(x))
            throw std::runtime_error(
                "chaos: inference result != plaintext reference");
          completed.fetch_add(1);
        }
        // A lane the chaos layer killed makes close() rethrow the
        // parked failure; the inferences above all completed, which is
        // what the soak asserts — a dead lane is a degraded, not
        // broken, session.
        try {
          client.close();
        } catch (...) {
        }
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);

  ChaosResult r;
  r.sessions = args.sessions;
  r.requests = args.requests;
  r.completed = completed.load();
  r.wall_s = wall.seconds();
  server.stop();
  r.server_stats = server.stats_json();
  r.server_shed = server.sessions_shed();
  r.net = NetCounters::snap() - before;
  if (r.completed != uint64_t(args.sessions * args.requests))
    throw std::runtime_error("chaos: not every inference completed");
  return r;
}

// Data-plane counter fragment shared by every load row: what the run
// copied and how the pool slabs circulated.
std::string net_counters_json(const LoadResult& l) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "\"bytes_copied\": %llu, "
      "\"table_bytes\": %llu, \"bytes_copied_per_table_byte\": %.6f, "
      "\"sends_vectored\": %llu, \"syscalls_send\": %llu, "
      "\"slab_acquire\": %llu, \"slab_recycle\": %llu, "
      "\"ring_chunk_reuse\": %llu, "
      "\"fault_injected\": %llu, \"fault_reset\": %llu, "
      "\"client_retries\": %llu, \"sessions_recovered\": %llu, "
      "\"material_poisoned\": %llu",
      static_cast<unsigned long long>(l.net.bytes_copied),
      static_cast<unsigned long long>(l.table_bytes),
      l.bytes_copied_per_table_byte(),
      static_cast<unsigned long long>(l.net.sends_vectored),
      static_cast<unsigned long long>(l.net.syscalls_send),
      static_cast<unsigned long long>(l.net.slab_acquire),
      static_cast<unsigned long long>(l.net.slab_recycle),
      static_cast<unsigned long long>(l.net.chunk_reuse),
      static_cast<unsigned long long>(l.net.fault_injected),
      static_cast<unsigned long long>(l.net.fault_reset),
      static_cast<unsigned long long>(l.net.retries),
      static_cast<unsigned long long>(l.net.recovered),
      static_cast<unsigned long long>(l.net.poisoned));
  return buf;
}

// Latency fragment shared by every load row. A tail percentile with
// fewer than ten samples beyond it is null; `samples` says why.
std::string latency_json(const LoadResult& l) {
  auto num = [](const std::optional<double>& v) {
    char b[32];
    if (!v) return std::string("null");
    std::snprintf(b, sizeof(b), "%.3f", *v);
    return std::string(b);
  };
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "\"samples\": %zu, \"p50_ms\": %.3f, \"p95_ms\": %s, "
                "\"p99_ms\": %s, \"connect_samples\": %zu, "
                "\"connect_p50_ms\": %.3f, \"connect_p95_ms\": %s, "
                "\"connect_p99_ms\": %s",
                l.samples, l.p50_ms, num(l.p95_ms).c_str(),
                num(l.p99_ms).c_str(), l.connect_samples, l.connect_p50_ms,
                num(l.connect_p95_ms).c_str(), num(l.connect_p99_ms).c_str());
  return buf;
}

void emit_json(std::FILE* f, const Args& args, const OverlapResult& o,
               const OfflineResult& off, const LoadResult& l,
               const LoadResult* pre,
               const std::vector<LoadResult>* scaling,
               const ChaosResult* chaos) {
  std::fprintf(f, "{\n  \"bench\": \"loadgen_inference\",\n");
  // Which AES kernel produced every rate below — without this a vaes16
  // row and a bitsliced8 row are indistinguishable in dashboards.
  std::fprintf(f, "  \"hash_backend\": \"%s\",\n  \"cpu_features\": \"%s\",\n",
               hash_backend().name, hash_backend_cpu_features().c_str());
  // cores / core_bound: a shard_speedup below 1.0 on a machine with
  // fewer cores than shard threads is the runner being core-bound, not
  // a sharding regression — record the context with the number.
  const size_t cores = std::thread::hardware_concurrency();
  std::fprintf(f,
               "  \"offline\": {\"layers\": %zu, \"gates_per_layer\": %zu, "
               "\"shard_threads\": %zu, \"cores\": %zu, "
               "\"shard_speedup_core_bound\": %s, "
               "\"time_to_first_warm_s\": %.6f, "
               "\"time_to_first_warm_sequential_s\": %.6f, "
               "\"shard_speedup\": %.3f},\n",
               off.layers, off.gates, off.shard_threads, cores,
               cores < off.shard_threads ? "true" : "false",
               off.ttfw_sharded_s, off.ttfw_sequential_s, off.speedup());
  std::fprintf(f,
               "  \"overlap\": {\"layers\": %zu, \"gates_per_layer\": %zu, "
               "\"garble_threads\": %zu, \"wall_s\": %.6f, \"garble_s\": %.6f, "
               "\"transfer_s\": %.6f, \"eval_s\": %.6f, \"phase_sum_s\": %.6f, "
               "\"setup_s\": %.6f, \"overlap_ratio\": %.4f},\n",
               o.layers, o.gates, o.threads, o.wall_s, o.garble_s,
               o.transfer_s, o.eval_s, o.phase_sum(), o.setup_s,
               o.phase_sum() > 0 ? o.wall_s / o.phase_sum() : 0.0);
  // The on-demand load's data plane: what the send path and the
  // zero-copy table plane did.
  std::fprintf(f, "  \"data_plane\": {\"p50_ms\": %.3f, %s},\n", l.p50_ms,
               net_counters_json(l).c_str());
  if (chaos != nullptr) {
    // Self-healing soak: measure_chaos already hard-failed unless every
    // inference completed byte-correct, so this section existing at all
    // means recovery worked; the counters say how much it was needed.
    std::fprintf(
        f,
        "  \"chaos\": {\"seed\": %llu, \"rate\": %.4f, \"sessions\": %zu, "
        "\"requests_per_session\": %zu, \"completed\": %llu, "
        "\"wall_s\": %.6f, \"faults_injected\": %llu, "
        "\"fault_resets\": %llu, \"client_retries\": %llu, "
        "\"sessions_recovered\": %llu, \"material_poisoned\": %llu, "
        "\"server_shed\": %llu, \"byte_correct\": true, "
        "\"server_stats\": %s},\n",
        static_cast<unsigned long long>(args.chaos_seed), args.chaos_rate,
        chaos->sessions, chaos->requests,
        static_cast<unsigned long long>(chaos->completed), chaos->wall_s,
        static_cast<unsigned long long>(chaos->net.fault_injected),
        static_cast<unsigned long long>(chaos->net.fault_reset),
        static_cast<unsigned long long>(chaos->net.retries),
        static_cast<unsigned long long>(chaos->net.recovered),
        static_cast<unsigned long long>(chaos->net.poisoned),
        static_cast<unsigned long long>(chaos->server_shed),
        chaos->server_stats.empty() ? "{}" : chaos->server_stats.c_str());
  }
  const bool more_after_load = pre != nullptr || scaling != nullptr;
  std::fprintf(f,
               "  \"load\": {\"sessions\": %zu, \"requests_per_session\": %zu, "
               "\"serving_threads\": %zu, "
               "\"inferences\": %llu, \"wall_s\": %.6f, \"sessions_per_s\": "
               "%.3f, \"requests_per_s\": %.3f, %s, %s, \"server_stats\": "
               "%s}%s\n",
               l.sessions, l.requests, l.serving_threads,
               static_cast<unsigned long long>(l.served), l.wall_s,
               l.sessions_per_s(), l.requests_per_s(), latency_json(l).c_str(),
               net_counters_json(l).c_str(),
               l.server_stats.empty() ? "{}" : l.server_stats.c_str(),
               more_after_load ? "," : "");
  if (pre != nullptr) {
    // Warm-pool run: p50/p95 cover the online phase only; the offline
    // garbling + prefetch cost is reported beside it, not hidden.
    std::fprintf(
        f,
        "  \"load_precomputed\": {\"sessions\": %zu, "
        "\"requests_per_session\": %zu, \"inferences\": %llu, "
        "\"pooled\": %llu, \"pool_hit_rate\": %.4f, "
        "\"shard_threads\": %zu, \"async_prefetch\": %s, "
        "\"time_to_first_warm_s\": %.6f, "
        "\"offline_prefetch_s\": %.6f, \"wall_s\": %.6f, "
        "\"requests_per_s\": %.3f, %s, "
        "\"p50_speedup_vs_ondemand\": %.3f, %s, \"server_stats\": %s}\n",
        pre->sessions, pre->requests,
        static_cast<unsigned long long>(pre->served),
        static_cast<unsigned long long>(pre->pooled), pre->pool_hit_rate(),
        args.shard_threads, args.async_prefetch ? "true" : "false",
        pre->ttfw_s, pre->offline_s, pre->wall_s, pre->requests_per_s(),
        latency_json(*pre).c_str(),
        pre->p50_ms > 0 ? l.p50_ms / pre->p50_ms : 0.0,
        net_counters_json(*pre).c_str(),
        pre->server_stats.empty() ? "{}" : pre->server_stats.c_str());
    if (scaling != nullptr) std::fprintf(f, ",");
  }
  if (scaling != nullptr) {
    std::fprintf(f, "  \"load_scaling\": [\n");
    for (size_t i = 0; i < scaling->size(); ++i) {
      const LoadResult& row = (*scaling)[i];
      std::fprintf(f,
                   "    {\"sessions\": %zu, \"serving_threads\": %zu, "
                   "\"wall_s\": %.6f, \"sessions_per_s\": %.3f, %s, %s, "
                   "\"server_stats\": %s}%s\n",
                   row.sessions, row.serving_threads, row.wall_s,
                   row.sessions_per_s(), latency_json(row).c_str(),
                   net_counters_json(row).c_str(),
                   row.server_stats.empty() ? "{}" : row.server_stats.c_str(),
                   i + 1 < scaling->size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
  }
  std::fprintf(f, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The 1024-session scaling point holds ~2 fds per session in this one
  // process (server + client end of every loopback socket, plus lanes):
  // lift the soft fd limit to the hard cap up front.
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &rl);
  }
  try {
    const Args args = parse_args(argc, argv);
    if (!args.trace.empty()) obs::set_trace_enabled(true);
    const OverlapResult overlap = measure_overlap(args);
    const OfflineResult offline = measure_offline(args);
    const LoadResult load = measure_load(args, /*pooled=*/false);
    LoadResult pre;
    if (args.precomputed) pre = measure_load(args, /*pooled=*/true);
    const LoadResult* pre_p = args.precomputed ? &pre : nullptr;
    std::vector<LoadResult> scaling;
    if (args.scaling) scaling = measure_scaling(args);
    const std::vector<LoadResult>* scl_p = args.scaling ? &scaling : nullptr;
    ChaosResult chaos;
    if (args.chaos_rate > 0) chaos = measure_chaos(args);
    const ChaosResult* chaos_p = args.chaos_rate > 0 ? &chaos : nullptr;
    if (!args.trace.empty()) {
      obs::write_chrome_trace(args.trace);
      std::fprintf(stderr, "loadgen: wrote %zu trace events (%llu dropped) to %s\n",
                   obs::trace_collected(),
                   static_cast<unsigned long long>(obs::trace_dropped()),
                   args.trace.c_str());
    }
    emit_json(stdout, args, overlap, offline, load, pre_p, scl_p, chaos_p);
    if (!args.out.empty()) {
      std::FILE* f = std::fopen(args.out.c_str(), "w");
      if (f == nullptr) throw std::runtime_error("cannot open " + args.out);
      emit_json(f, args, overlap, offline, load, pre_p, scl_p, chaos_p);
      std::fclose(f);
    }
    if (overlap.wall_s >= overlap.phase_sum()) {
      std::fprintf(stderr,
                   "loadgen: WARNING: no measurable overlap (wall %.3fs >= "
                   "phase sum %.3fs)\n",
                   overlap.wall_s, overlap.phase_sum());
      if (args.strict_overlap) return 1;
    }
    if (args.precomputed && pre.p50_ms >= load.p50_ms) {
      std::fprintf(stderr,
                   "loadgen: WARNING: warm pool not faster (pooled p50 "
                   "%.3fms >= on-demand p50 %.3fms)\n",
                   pre.p50_ms, load.p50_ms);
      if (args.strict_precomputed) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen_inference: %s\n", e.what());
    return 2;
  }
}
