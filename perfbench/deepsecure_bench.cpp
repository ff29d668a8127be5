// Served-inference benchmark: one workload per process, end-to-end
// metrics with tracing off, per-layer metrics in a separate traced run.
//
//   deepsecure_bench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--cache-dir DIR] [--git-sha SHA]
//   deepsecure_bench --ledger MODEL[,MODEL...] [--seed N] [--out-dir DIR]
//
// A workload serves one model through the public runtime API only: an
// InferenceServer and its InferenceClients share this process and talk
// over loopback TCP, every config at its production default. Nothing
// under src/ knows it is being measured; per-layer numbers come from
// timing calls into each module's public functions and from the
// counters and histograms the library already exports.
//
// `--seed` derives the weights, the input samples, the arrival schedule
// and the client label seeds. Every answer is checked against the
// plaintext chain (Circuit::eval over synth::compile_model_layers)
// after the timed window, once peak RSS has been read, so the check's
// CPU and memory stay out of the numbers.
//
// Output: human-readable lines, then one {"report": ...} line with the
// host context and validity, then the result line the harness reads:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes trace.json + layers.json under --out-dir).
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "circuit/schedule.h"
#include "core/benchmark_zoo.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
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
#include "synth/gate_count.h"

#ifndef DSBENCH_BUILD_TYPE
#define DSBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

using namespace deepsecure;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

// An open loop sends on a Poisson schedule; a closed loop sends a
// session's next request when its previous one returns.
enum class Loop { kPoisson, kClosed };

struct Workload {
  const char* name;
  const char* model;   // "mlp" or a paper_zoo() spec name
  Loop loop;
  size_t sessions;     // persistent client sessions (one thread each)
  double rate_rps;     // offered load, open loop only
  size_t pool_target;  // 0 = on-demand serving
  size_t setups;       // set-ups per untraced run; setup_s is their median

  bool open() const { return loop == Loop::kPoisson; }
};

// Why each exists is in perfbench/README.md. Set-up counts trade
// steadiness against the run budget: a b3_pp set-up compiles the netlist
// once per party (~7 s each), so those workloads set up once per run.
constexpr Workload kWorkloads[] = {
    {"mlp-open", "mlp", Loop::kPoisson, 4, 100.0, 0, 9},
    {"b3pp-closed", "b3_pp", Loop::kClosed, 2, 0.0, 0, 1},
    {"b3pp-pooled", "b3_pp", Loop::kPoisson, 2, 1.5, 2, 1},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::runtime_error("unknown workload '" + name + "'");
}

// 8-6-ReLU-3-argmax: the chain loadgen_inference serves. Crypto is
// negligible, so request time is the runtime and network control path.
synth::ModelSpec mlp_spec() {
  synth::ModelSpec spec;
  spec.name = "mlp";
  spec.input = synth::Shape3{1, 1, 8};
  spec.layers.push_back(synth::FcLayer{6, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

synth::ModelSpec model_spec(const std::string& name) {
  if (name == "mlp") return mlp_spec();
  for (const core::ZooEntry& z : core::paper_zoo()) {
    if (z.base.name == name) return z.base;
    if (z.compact.name == name) return z.compact;
  }
  throw std::runtime_error("unknown model '" + name + "'");
}

// Private weights (evaluator-input order) and a pool of input samples;
// request i sends samples[i % size].
struct Inputs {
  BitVec weights;
  std::vector<std::vector<float>> samples;
};

Inputs make_inputs(const synth::ModelSpec& spec, uint64_t seed) {
  Inputs in;
  Rng wr(seed * 0x9e3779b97f4a7c15ull + 1);
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i) {
    const BitVec b = Fixed::from_double(wr.next_uniform(-0.2, 0.2), spec.fmt)
                         .to_bits();
    in.weights.insert(in.weights.end(), b.begin(), b.end());
  }
  Rng xr(seed * 0x9e3779b97f4a7c15ull + 2);
  in.samples.resize(64);
  for (auto& x : in.samples) {
    x.resize(spec.input.flat());
    for (float& v : x) v = static_cast<float>(xr.next_uniform(-0.4, 0.4));
  }
  return in;
}

// Open-loop arrivals: round(rate * seconds) due times in the window, the
// last one at the window's end — a Poisson process conditioned on its
// count, i.e. sorted uniform points. The count and the span do not vary
// with the seed, so throughput (completions over window start -> last
// completion) is comparable across seeds.
std::vector<double> arrival_schedule(const Workload& w, double seconds,
                                     uint64_t seed) {
  const size_t n = static_cast<size_t>(std::llround(w.rate_rps * seconds));
  std::vector<double> t(n);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  for (double& x : t) x = rng.next_double() * seconds;
  std::sort(t.begin(), t.end());
  if (!t.empty()) t.back() = seconds;
  return t;
}

// ---------------------------------------------------------------------------
// Small helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Host speed reference: milliseconds for a fixed single-thread integer
// loop that calls no library code. It moves only with the host (clock,
// contention from other tenants), so comparing it across runs tells host
// drift apart from a change in the program.
double host_ref_ms() {
  Stopwatch sw;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i)
    x ^= x * 0xff51afd7ed558ccdull + (x >> 29);
  asm volatile("" : : "r"(x));  // keep the loop: its result is "used"
  return sw.seconds() * 1e3;
}

// Run f(0..n-1) on n threads; rethrow the first failure after joining.
void run_parallel(size_t n, const std::function<void(size_t)>& f) {
  std::vector<std::exception_ptr> errs(n);
  std::vector<std::thread> ts;
  for (size_t i = 0; i < n; ++i)
    ts.emplace_back([&, i] {
      try {
        f(i);
      } catch (...) {
        errs[i] = std::current_exception();
      }
    });
  for (auto& t : ts) t.join();
  for (auto& e : errs)
    if (e) std::rethrow_exception(e);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Bench-side spans (traced runs only): one around every public call the
// bench makes. Spans of one request share its id; "bench.infer" is the
// child of "bench.request". Kept in memory, written at exit.

struct BenchSpan {
  const char* name;
  const char* parent;
  uint64_t id;
  uint64_t start_ns, end_ns;
};

class SpanLog {
 public:
  void enable() { on_ = true; }
  bool on() const { return on_; }
  void add(const char* name, uint64_t id, uint64_t start_ns, uint64_t end_ns,
           const char* parent = "") {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(BenchSpan{name, parent, id, start_ns, end_ns});
  }
  /// Chrome-trace events (comma-separated, no brackets), pid 2.
  std::string chrome_events() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    char buf[320];
    for (const BenchSpan& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":\"%s\"}}",
                    out.empty() ? "" : ",", s.name,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.id), s.parent);
      out += buf;
    }
    return out;
  }

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;
};

SpanLog g_spans;

template <class F>
auto spanned(const char* name, uint64_t id, F&& f) {
  const uint64_t t0 = obs::now_ns();
  struct Close {
    const char* name;
    uint64_t id, t0;
    ~Close() { g_spans.add(name, id, t0, obs::now_ns()); }
  } close{name, id, t0};
  return f();
}

// ---------------------------------------------------------------------------
// Set-up: the server plus its connected (and, pooled, warm) sessions.

struct Rig {
  std::unique_ptr<runtime::InferenceServer> server;
  std::vector<std::unique_ptr<runtime::InferenceClient>> clients;
  double setup_s = 0;
  std::vector<double> connect_s;  // per-session client constructor time
};

Rig set_up(const Workload& w, const synth::ModelSpec& spec,
           const Inputs& in, uint64_t seed) {
  Rig rig;
  Stopwatch sw;
  rig.server = spanned("bench.server_ctor", 0, [&] {
    return std::make_unique<runtime::InferenceServer>(spec, in.weights);
  });
  spanned("bench.server_start", 0, [&] { rig.server->start(); });
  rig.clients.resize(w.sessions);
  rig.connect_s.resize(w.sessions);
  run_parallel(w.sessions, [&](size_t s) {
    runtime::ClientConfig cfg;
    cfg.seed = Block{seed, 0x5e55'0000ull + s};
    if (w.pool_target > 0) {
      cfg.pool_target = w.pool_target;
      cfg.async_prefetch = true;
    }
    Stopwatch csw;
    rig.clients[s] = spanned("bench.client_ctor", s, [&] {
      return std::make_unique<runtime::InferenceClient>(
          "127.0.0.1", rig.server->port(), spec, cfg);
    });
    rig.connect_s[s] = csw.seconds();
    // Pool warm: the server holds `pool_target` artifacts for the session
    // (prefetch() blocks until the lane has pushed them).
    if (w.pool_target > 0 &&
        spanned("bench.prefetch", s, [&] {
          return rig.clients[s]->prefetch(w.pool_target);
        }) < w.pool_target)
      throw std::runtime_error("prefetch did not reach the pool target");
  });
  rig.setup_s = sw.seconds();
  return rig;
}

void tear_down(Rig& rig) {
  spanned("bench.stop", 0, [&] {
    for (auto& c : rig.clients) c->close();
    rig.clients.clear();
    rig.server->stop();
  });
}

// ---------------------------------------------------------------------------
// The timed window

struct Sample {
  size_t input = 0;
  double due_s = 0;    // open loop: scheduled send; closed: session free
  double start_s = 0;  // infer() called
  double done_s = 0;   // infer() returned
  size_t label = 0;
  bool ok = false;     // returned without an error
  bool slept = false;  // a session was free before the request was due
};

struct Window {
  std::vector<Sample> samples;
  size_t attempted = 0;
  double span_s = 0;  // window start -> last completion
  double cpu_s = 0;   // process CPU, window start -> quiescent
  obs::Snapshot global;  // Registry::global() delta over the same interval
  obs::Snapshot server;  // the server's registry delta
  // InferenceClient::trace() garbling and OT seconds, all sessions.
  double client_garble_s = 0, client_ot_s = 0;

  size_t completed() const {
    size_t n = 0;
    for (const Sample& s : samples) n += s.ok;
    return n;
  }
  /// Open loop: from due time (counts the wait a stall imposes on later
  /// requests). Closed loop: from send.
  std::vector<double> latencies_ms(bool open) const {
    std::vector<double> v;
    for (const Sample& s : samples)
      if (s.ok) v.push_back((s.done_s - (open ? s.due_s : s.start_s)) * 1e3);
    return v;
  }
};

// Garbling and OT seconds in the clients' session traces.
std::pair<double, double> client_trace_s(const Rig& rig) {
  double garble = 0, ot = 0;
  for (const auto& c : rig.clients)
    for (const PhaseSample& p : c->trace().phases) {
      garble += p.garble_s;
      ot += p.ot_s;
    }
  return {garble, ot};
}

// Background work a request triggered (pool refill, lane push) must land
// inside the window's CPU and byte accounting. Quiescent: every session's
// server-side store is full again and the process used under 10% of a
// core for 100 ms. Idleness rather than pool_ready(): a refill racing the
// lane's acquire can leave the local pool one artifact short of its
// target with no garbling scheduled until the next acquire.
void wait_quiescent(const Rig& rig, const Workload& w) {
  if (w.pool_target == 0) return;
  Stopwatch sw;
  for (;;) {
    size_t stored = w.pool_target;
    for (const auto& c : rig.clients) stored = std::min(stored, c->prefetched());
    const double cpu0 = cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (stored == w.pool_target && cpu_seconds() - cpu0 < 0.01) return;
    if (sw.seconds() > 120.0)
      throw std::runtime_error("no quiescence within 120 s (store at " +
                               std::to_string(stored) + " of " +
                               std::to_string(w.pool_target) + ")");
  }
}

Window run_window(Rig& rig, const Workload& w, const Inputs& in,
                  const std::vector<double>& schedule, double seconds,
                  uint64_t id_base) {
  Window win;
  const obs::Snapshot g0 = obs::Registry::global().snapshot();
  const obs::Snapshot s0 = rig.server->metrics().snapshot();
  const auto [garble0, ot0] = client_trace_s(rig);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto since_t0 = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> per(w.sessions);
  run_parallel(w.sessions, [&](size_t s) {
    runtime::InferenceClient& client = *rig.clients[s];
    std::this_thread::sleep_until(t0);
    double free_at = 0;
    for (;;) {
      const size_t i = next.fetch_add(1);
      Sample x;
      x.input = i % in.samples.size();
      if (w.open()) {
        if (i >= schedule.size()) break;
        x.due_s = schedule[i];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(x.due_s));
        if (Clock::now() < due) {
          std::this_thread::sleep_until(due);
          x.slept = true;
        }
      } else {
        if (since_t0() >= seconds) break;
        x.due_s = free_at;
        x.slept = true;
      }
      x.start_s = since_t0();
      const uint64_t start_ns = obs::now_ns();
      try {
        x.label = client.infer(in.samples[x.input]);
        x.ok = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
      }
      x.done_s = free_at = since_t0();
      if (g_spans.on()) {
        const uint64_t end_ns = obs::now_ns();
        const auto due_ns = static_cast<uint64_t>(
            static_cast<double>(start_ns) - (x.start_s - x.due_s) * 1e9);
        g_spans.add("bench.request", id_base + i, due_ns, end_ns);
        g_spans.add("bench.infer", id_base + i, start_ns, end_ns,
                    "bench.request");
      }
      per[s].push_back(x);
      if (!x.ok) break;  // production clients do not retry: session is gone
    }
  });
  for (auto& v : per) win.samples.insert(win.samples.end(), v.begin(), v.end());
  win.attempted = w.open() ? schedule.size() : win.samples.size();
  for (const Sample& s : win.samples) win.span_s = std::max(win.span_s, s.done_s);

  wait_quiescent(rig, w);
  win.cpu_s = cpu_seconds() - cpu0;
  win.global = obs::Registry::global().snapshot().delta(g0);
  win.server = rig.server->metrics().snapshot().delta(s0);
  const auto [garble1, ot1] = client_trace_s(rig);
  win.client_garble_s = garble1 - garble0;
  win.client_ot_s = ot1 - ot0;
  return win;
}

// ---------------------------------------------------------------------------
// Plaintext reference

// Compiling b3_pp's chain takes about 7 s. Paid after every untraced b3pp
// run, it would not fit a harness's time budget next to 30 s windows, so
// the first run in a build directory stores the compiled chain and later
// runs of the same binary read it back. The file name carries the
// binary's size and modification time, so a rebuilt binary compiles
// afresh. Only what Circuit::eval reads is stored.
std::string chain_cache_path(const std::string& dir, const std::string& model) {
  struct stat st {};
  if (dir.empty() || ::stat("/proc/self/exe", &st) != 0) return "";
  return dir + "/" + model + "-" + std::to_string(st.st_size) + "-" +
         std::to_string(st.st_mtim.tv_sec) + "." +
         std::to_string(st.st_mtim.tv_nsec) + ".chain";
}

template <class T>
void put_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const uint64_t n = v.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(n * sizeof(T)));
}

// `left` is the unread size of the file: a corrupt count fails here
// instead of allocating.
template <class T>
bool get_vec(std::istream& is, uint64_t& left, std::vector<T>& v) {
  uint64_t n = 0;
  if (left < sizeof n || !is.read(reinterpret_cast<char*>(&n), sizeof n))
    return false;
  left -= sizeof n;
  if (n > left / sizeof(T)) return false;
  left -= n * sizeof(T);
  v.resize(n);
  return static_cast<bool>(is.read(reinterpret_cast<char*>(v.data()),
                                   static_cast<std::streamsize>(n * sizeof(T))));
}

// A cached chain is outside input: it is read in full and validated, and
// any defect makes the caller compile afresh.
bool read_chain(std::istream& is, uint64_t size, std::vector<Circuit>& chain) {
  std::vector<uint64_t> header;
  if (!get_vec(is, size, header) || header.size() != 1 || header[0] > 1024)
    return false;
  chain.resize(header[0]);
  std::vector<Wire> num_wires;
  for (Circuit& c : chain) {
    if (!get_vec(is, size, num_wires) || num_wires.size() != 1 ||
        !get_vec(is, size, c.gates) || !get_vec(is, size, c.garbler_inputs) ||
        !get_vec(is, size, c.evaluator_inputs) ||
        !get_vec(is, size, c.state_inputs) ||
        !get_vec(is, size, c.state_next) || !get_vec(is, size, c.outputs))
      return false;
    c.num_wires = num_wires[0];
    try {
      c.validate();
    } catch (const std::logic_error&) {
      return false;
    }
  }
  return size == 0;
}

// Replaces every cached chain of `model` (a stale binary's included).
void write_chain(const std::string& path, const std::string& model,
                 const std::vector<Circuit>& chain) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(path).parent_path();
  fs::create_directories(dir);
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().rfind(model + "-", 0) == 0)
      fs::remove(e.path());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary);
    put_vec(os, std::vector<uint64_t>{chain.size()});
    for (const Circuit& c : chain) {
      put_vec(os, std::vector<Wire>{c.num_wires});
      put_vec(os, c.gates);
      put_vec(os, c.garbler_inputs);
      put_vec(os, c.evaluator_inputs);
      put_vec(os, c.state_inputs);
      put_vec(os, c.state_next);
      put_vec(os, c.outputs);
    }
    if (!os) throw std::runtime_error("cannot write " + tmp);
  }
  fs::rename(tmp, path);
}

// The plaintext chain for an untraced run's answer check; `cached` says
// whether it was read back rather than compiled.
std::vector<Circuit> reference_chain(const synth::ModelSpec& spec,
                                     const std::string& cache_dir,
                                     bool& cached) {
  const std::string path = chain_cache_path(cache_dir, spec.name);
  std::vector<Circuit> chain;
  std::error_code ec;
  const uint64_t size = path.empty() ? 0 : std::filesystem::file_size(path, ec);
  std::ifstream is(path, std::ios::binary);
  cached = !ec && is && read_chain(is, size, chain);
  if (cached) return chain;
  chain = synth::compile_model_layers(spec);
  if (!path.empty()) write_chain(path, spec.name, chain);
  return chain;
}

size_t plain_label(const std::vector<Circuit>& chain, const BitVec& weights,
                   const std::vector<float>& x, FixedFormat fmt) {
  BitVec bits;
  for (float v : x) {
    const BitVec b = Fixed::from_double(static_cast<double>(v), fmt).to_bits();
    bits.insert(bits.end(), b.begin(), b.end());
  }
  size_t used = 0;
  for (const Circuit& c : chain) {
    const auto first = weights.begin() + static_cast<ptrdiff_t>(used);
    used += c.evaluator_inputs.size();
    bits = c.eval(bits, BitVec(first, weights.begin() +
                                          static_cast<ptrdiff_t>(used)));
  }
  return static_cast<size_t>(from_bits(bits));
}

// Count answers that disagree with the plaintext chain. Each distinct
// input is evaluated once, spread over a few threads.
size_t count_wrong(const std::vector<Circuit>& chain, const Inputs& in,
                   FixedFormat fmt, const std::vector<Sample>& samples) {
  std::vector<uint8_t> used(in.samples.size(), 0);
  for (const Sample& s : samples)
    if (s.ok) used[s.input] = 1;
  std::vector<size_t> expect(in.samples.size(), 0);
  std::atomic<size_t> next{0};
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  run_parallel(threads, [&](size_t) {
    for (size_t i = next.fetch_add(1); i < in.samples.size();
         i = next.fetch_add(1))
      if (used[i]) expect[i] = plain_label(chain, in.weights, in.samples[i], fmt);
  });
  size_t wrong = 0;
  for (const Sample& s : samples) wrong += s.ok && s.label != expect[s.input];
  return wrong;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

using Metrics = std::vector<Metric>;

double hist_quantile_ms(const obs::Snapshot& s, std::string_view name,
                        double q) {
  const obs::Snapshot::Hist* h = s.find_hist(name);
  return h != nullptr ? h->quantile(q) / 1e6 : 0.0;
}

double hist_sum_s(const obs::Snapshot& s, std::string_view name) {
  const obs::Snapshot::Hist* h = s.find_hist(name);
  return h != nullptr ? static_cast<double>(h->sum) / 1e9 : 0.0;
}

// The gated end-to-end metrics: those whose spread over ten runs stays
// within their bound on this benchmark's host (perfbench/README.md).
Metrics end_to_end_metrics(const Window& win, const std::vector<double>& setups,
                           double rss_mb) {
  const double done = static_cast<double>(std::max<size_t>(win.completed(), 1));
  return {
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"comm_mb_per_inference",
       static_cast<double>(win.global.counter_value("net.tcp.bytes_out")) /
           1e6 / done,
       "MB"},
  };
}

// End-to-end timings a user sees but no bound of 0.10 can hold here: host
// drift alone spreads them by more over ten runs. Every run reports them
// ungated, and traced runs list them with the per-layer metrics.
Metrics timing_metrics(const Workload& w, const Window& win) {
  const std::vector<double> lat = win.latencies_ms(w.open());
  const double done = static_cast<double>(std::max<size_t>(win.completed(), 1));
  return {
      {"latency_p50_ms", quantile(lat, 0.50), "ms"},
      {"latency_p90_ms", quantile(lat, 0.90), "ms"},
      {"throughput_rps", static_cast<double>(win.completed()) / win.span_s,
       "1/s"},
      {"cpu_ms_per_inference", win.cpu_s * 1e3 / done, "ms"},
  };
}

// Generator health: how late it sent while a session was free, and how
// long requests waited before being sent at all.
struct LoadgenStats {
  double late_p99_ms = 0, queue_wait_p90_ms = 0;
};

LoadgenStats loadgen_stats(const Window& win) {
  std::vector<double> late, wait;
  for (const Sample& s : win.samples) {
    const double d = (s.start_s - s.due_s) * 1e3;
    wait.push_back(d);
    if (s.slept) late.push_back(d);
  }
  return {quantile(late, 0.99), quantile(wait, 0.90)};
}

// Per-circuit slots: both served models compile to four circuits
// (FC, activation, FC, argmax). Extra circuits fold into the last slot.
constexpr size_t kSlots = 4;

size_t slot_of(size_t circuit) { return std::min(circuit, kSlots - 1); }

// ---------------------------------------------------------------------------
// Layer probes: public calls into synth / circuit / crypto / gc / cost on
// the served chain, outside the serving path.

struct Layers {
  double compile_s = 0;
  uint64_t and_gates[kSlots] = {}, xor_gates[kSlots] = {};
  uint64_t and_total = 0, xor_total = 0;
  double and_window_mean = 0;
  uint64_t flush_points = 0;
  double hash_mhps = 0;
  double garble_s[kSlots] = {}, eval_s[kSlots] = {}, ot_s[kSlots] = {};
  double ot_setup_s = 0, offline_artifact_s = 0;
  cost::Calibration cal;
  double predicted_s[kSlots] = {};

  double sum(const double (&v)[kSlots]) const {
    double t = 0;
    for (double x : v) t += x;
    return t;
  }
};

double hash_rate_mhps() {
  const size_t n = size_t{1} << 14;
  std::vector<Block> in(n), out(n);
  std::vector<uint64_t> tweaks(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    in[i] = Block{rng.next_u64(), rng.next_u64()};
    tweaks[i] = i;
  }
  const HashBackend& be = hash_backend();
  gc_hash_batch(be, in.data(), tweaks.data(), out.data(), n);
  size_t hashed = 0;
  Stopwatch sw;
  while (sw.seconds() < 0.25) {
    gc_hash_batch(be, in.data(), tweaks.data(), out.data(), n);
    in[0] = out[n - 1];  // keep the compiler from hoisting the call
    hashed += n;
  }
  return static_cast<double>(hashed) / sw.seconds() / 1e6;
}

// One warm garble -> OT -> eval over loopback TCP with production
// defaults; the second of two inferences is measured. Its output must
// match the plaintext chain too.
void gc_loopback(const std::vector<Circuit>& chain, const Inputs& in,
                 FixedFormat fmt, uint64_t seed, Layers& L) {
  BitVec data;
  for (float v : in.samples[0]) {
    const BitVec b = Fixed::from_double(static_cast<double>(v), fmt).to_bits();
    data.insert(data.end(), b.begin(), b.end());
  }
  const runtime::StreamConfig cfg;
  TcpListener listener(0);
  SessionTrace g_trace, e_trace;
  BitVec got;
  std::exception_ptr server_err;
  std::thread server([&] {
    try {
      TcpChannel ch = listener.accept();
      runtime::StreamingEvaluator eval(ch, cfg);
      eval.run_chain(chain, in.weights);
      eval.run_chain(chain, in.weights);
      e_trace = eval.trace();
    } catch (...) {
      server_err = std::current_exception();
    }
  });
  try {
    TcpChannel ch = TcpChannel::connect("127.0.0.1", listener.port());
    runtime::StreamingGarbler garbler(ch, Block{seed, 0x9a4b}, cfg);
    garbler.run_chain(chain, data);
    got = garbler.run_chain(chain, data);
    g_trace = garbler.trace();
  } catch (...) {
    listener.close();
    server.join();
    throw;
  }
  server.join();
  if (server_err) std::rethrow_exception(server_err);
  if (from_bits(got) != plain_label(chain, in.weights, in.samples[0], fmt))
    throw std::runtime_error("gc loopback: output != plaintext chain");
  const size_t n = chain.size();
  for (size_t i = 0; i < n; ++i) {
    const PhaseSample& g = g_trace.phases[g_trace.phases.size() - n + i];
    const PhaseSample& e = e_trace.phases[e_trace.phases.size() - n + i];
    L.garble_s[slot_of(i)] += g.garble_s;
    L.ot_s[slot_of(i)] += g.ot_s;
    L.eval_s[slot_of(i)] += e.eval_s;
  }
  L.ot_setup_s = g_trace.setup_s;
}

// Table 2 model at this host's measured per-gate garbling cost (ns per
// gate = clocks at 1 GHz).
cost::GcCostParams calibrated_params(const cost::Calibration& cal) {
  cost::GcCostParams p;
  p.clk_per_xor = cal.ns_per_xor;
  p.clk_per_non_xor = cal.ns_per_non_xor;
  p.f_cpu_hz = 1e9;
  return p;
}

Layers probe_layers(const std::vector<Circuit>& chain, const Inputs& in,
                    FixedFormat fmt, uint64_t seed, double compile_s) {
  Layers L;
  L.compile_s = compile_s;
  size_t windows = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    const CircuitStats st = chain[i].stats();
    L.and_gates[slot_of(i)] += st.num_and;
    L.xor_gates[slot_of(i)] += st.num_xor;
    L.and_total += st.num_and;
    L.xor_total += st.num_xor;
    const WindowStats ws =
        window_stats(*chain[i].gc_scheduled(), kGcMaxBatchWindow);
    windows += ws.windows;
    L.flush_points += ws.flush_points;
  }
  L.and_window_mean = windows > 0 ? static_cast<double>(L.and_total) /
                                        static_cast<double>(windows)
                                  : 0.0;
  L.hash_mhps = hash_rate_mhps();
  gc_loopback(chain, in, fmt, seed, L);
  Stopwatch sw;
  (void)garble_offline(chain, Block{seed, 0x0ff1});
  L.offline_artifact_s = sw.seconds();
  L.cal = cost::calibrate();
  for (size_t s = 0; s < kSlots; ++s)
    L.predicted_s[s] =
        cost::cost_from_gates(synth::GateCount{L.xor_gates[s], L.and_gates[s]},
                              calibrated_params(L.cal))
            .comp_seconds;
  return L;
}

// Table 4/5 rows for all eight zoo variants: analytic gate counts, table
// bytes, and the Table 2 cost at the paper's and this host's constants.
struct LedgerRow {
  std::string model;
  synth::GateCount g;
  cost::NetworkCost paper, calibrated;
};

std::vector<LedgerRow> paper_ledger(const cost::Calibration& cal) {
  std::vector<LedgerRow> rows;
  for (const core::ZooEntry& z : core::paper_zoo())
    for (const synth::ModelSpec* m : {&z.base, &z.compact}) {
      LedgerRow r;
      r.model = m->name;
      r.g = synth::count_model(*m);
      r.paper = cost::cost_from_gates(r.g);
      r.calibrated = cost::cost_from_gates(r.g, calibrated_params(cal));
      rows.push_back(r);
    }
  return rows;
}

void add_layer_metrics(Metrics& m, const Layers& L) {
  auto slot = [](const char* mod, size_t s, const char* what) {
    return std::string(mod) + ".l" + std::to_string(s) + "." + what;
  };
  m.push_back({"synth.compile_s", L.compile_s, "s"});
  m.push_back({"synth.and_gates", static_cast<double>(L.and_total), "count"});
  m.push_back({"synth.xor_gates", static_cast<double>(L.xor_total), "count"});
  m.push_back({"synth.table_mb",
               static_cast<double>(L.and_total) * 32 / 1e6, "MB"});
  for (size_t s = 0; s < kSlots; ++s) {
    m.push_back({slot("synth", s, "and_gates"),
                 static_cast<double>(L.and_gates[s]), "count"});
    m.push_back({slot("synth", s, "xor_gates"),
                 static_cast<double>(L.xor_gates[s]), "count"});
  }
  m.push_back({"circuit.and_window_mean", L.and_window_mean, "count"});
  m.push_back({"circuit.flush_points", static_cast<double>(L.flush_points),
               "count"});
  m.push_back({"crypto.hash_mhps", L.hash_mhps, "Mhash/s"});
  const double garble = L.sum(L.garble_s), eval = L.sum(L.eval_s);
  m.push_back({"gc.garble_s", garble, "s"});
  m.push_back({"gc.ot_s", L.sum(L.ot_s), "s"});
  m.push_back({"gc.eval_s", eval, "s"});
  for (size_t s = 0; s < kSlots; ++s) {
    m.push_back({slot("gc", s, "garble_s"), L.garble_s[s], "s"});
    m.push_back({slot("gc", s, "ot_s"), L.ot_s[s], "s"});
    m.push_back({slot("gc", s, "eval_s"), L.eval_s[s], "s"});
  }
  m.push_back({"gc.garble_mand_per_s",
               static_cast<double>(L.and_total) / garble / 1e6, "Mgate/s"});
  m.push_back({"gc.eval_mand_per_s",
               static_cast<double>(L.and_total) / eval / 1e6, "Mgate/s"});
  m.push_back({"gc.ot_setup_s", L.ot_setup_s, "s"});
  m.push_back({"gc.offline_artifact_s", L.offline_artifact_s, "s"});
  const double predicted = L.sum(L.predicted_s);
  m.push_back({"cost.predicted_comp_s", predicted, "s"});
  m.push_back({"cost.measured_over_predicted", garble / predicted, "ratio"});
  for (size_t s = 0; s < kSlots; ++s)
    m.push_back({slot("cost", s, "measured_over_predicted"),
                 L.predicted_s[s] > 0 ? L.garble_s[s] / L.predicted_s[s] : 0.0,
                 "ratio"});
  m.push_back({"cost.ns_per_and", L.cal.ns_per_non_xor, "ns"});
  m.push_back({"cost.ns_per_xor", L.cal.ns_per_xor, "ns"});
}

// Garbled-table payload of one inference (decode-bits frame + tables per
// circuit), as the server sizes a prefetched artifact.
uint64_t table_bytes_per_inference(const std::vector<Circuit>& chain) {
  uint64_t n = 0;
  for (const Circuit& c : chain) n += 2 * sizeof(Block) + c.stats().table_bytes();
  return n;
}

void add_runtime_metrics(Metrics& m, const Workload& w, const Rig& rig,
                         const Window& win, uint64_t table_bytes_per_infer,
                         double accounted_fraction) {
  const double done = static_cast<double>(std::max<size_t>(win.completed(), 1));
  const obs::Snapshot& g = win.global;
  const obs::Snapshot& s = win.server;
  // Every completed request shipped one artifact's tables: on the request
  // path (on-demand) or as the refill push the window waited for (pooled).
  const double table_bytes = static_cast<double>(table_bytes_per_infer) * done;
  const double served =
      static_cast<double>(s.counter_value("server.inferences_served"));
  const double pooled =
      static_cast<double>(s.counter_value("server.inferences_pooled"));
  m.push_back({"net.bytes_copied_per_table_byte",
               static_cast<double>(g.counter_value("net.bytes_copied")) /
                   table_bytes,
               "ratio"});
  m.push_back({"net.syscalls_send_per_mb",
               static_cast<double>(g.counter_value("net.syscalls_send")) /
                   (table_bytes / 1e6),
               "1/MB"});
  m.push_back({"net.sends_vectored_per_inference",
               static_cast<double>(g.counter_value("net.sends_vectored")) / done,
               "count"});
  m.push_back({"runtime.pool_hit_rate", served > 0 ? pooled / served : 0.0,
               "ratio"});
  m.push_back({"runtime.accounted_fraction", accounted_fraction, "ratio"});
  // Server phases and sub-phases of the request path. The handshake
  // happens at set-up, so it is read from the whole run.
  const obs::Snapshot all = rig.server->metrics().snapshot();
  for (const char* h : {"phase.dispatch", "phase.handshake",
                        "phase.infer_ondemand", "phase.infer_online",
                        "phase.prefetch_push", "subphase.ot_online",
                        "subphase.eval"}) {
    const obs::Snapshot& src = std::strcmp(h, "phase.handshake") ? s : all;
    const std::string name = std::string("runtime.") + h;
    m.push_back({name + ".p50_ms", hist_quantile_ms(src, h, 0.50), "ms"});
    m.push_back({name + ".p99_ms", hist_quantile_ms(src, h, 0.99), "ms"});
  }
  m.push_back({"client.connect_s", median(rig.connect_s), "s"});
  // Garbling per inference wherever it ran: on the request path
  // (on-demand) or in the material pool (pooled).
  m.push_back({"client.garble_s_per_inference",
               (hist_sum_s(g, "pool.refill_ns") + win.client_garble_s) / done,
               "s"});
  m.push_back({"client.ot_s_per_inference", win.client_ot_s / done, "s"});
  for (const char* c : {"pool.hits", "pool.misses", "pool.produced"})
    m.push_back({c, static_cast<double>(g.counter_value(c)), "count"});
  const LoadgenStats lg = loadgen_stats(win);
  m.push_back({"loadgen.late_p99_ms", lg.late_p99_ms, "ms"});
  m.push_back({"loadgen.queue_wait_p90_ms", lg.queue_wait_p90_ms, "ms"});
  m.push_back({"loadgen.latency_p99_ms",
               quantile(win.latencies_ms(w.open()), 0.99), "ms"});
  m.push_back({"loadgen.samples", static_cast<double>(win.completed()),
               "count"});
}

// "accounted_fraction" out of InferenceServer::stats_json().
double accounted_fraction(const std::string& stats) {
  const std::string key = "\"accounted_fraction\":";
  const size_t at = stats.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(stats.c_str() + at + key.size(), nullptr);
}

// ---------------------------------------------------------------------------
// Output

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i)
    out += (i ? ", " : "") + json_str(m[i].name) + ": {\"value\": " +
           json_num(m[i].value) + ", \"unit\": " + json_str(m[i].unit) + "}";
  return out + "}";
}

void print_metrics(const Metrics& m) {
  for (const Metric& x : m)
    std::printf("  %-40s %16.6g %s\n", x.name.c_str(), x.value, x.unit);
}

std::string ledger_json(const std::vector<LedgerRow>& rows) {
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const LedgerRow& r = rows[i];
    out += std::string(i ? ", " : "") + "{\"model\": " + json_str(r.model) +
           ", \"and_gates\": " + std::to_string(r.g.num_non_xor) +
           ", \"xor_gates\": " + std::to_string(r.g.num_xor) +
           ", \"table_mb\": " + json_num(r.paper.comm_bytes / 1e6) +
           ", \"paper_comp_s\": " + json_num(r.paper.comp_seconds) +
           ", \"paper_exec_s\": " + json_num(r.paper.exec_seconds) +
           ", \"calibrated_comp_s\": " + json_num(r.calibrated.comp_seconds) +
           "}";
  }
  return out + "]";
}

void print_ledger(const std::vector<LedgerRow>& rows) {
  std::printf("paper ledger (count_model; Table 2 cost at paper / this host's "
              "constants):\n");
  std::printf("  %-7s %14s %14s %11s %12s %12s\n", "model", "and_gates",
              "xor_gates", "table_mb", "paper_s", "host_s");
  for (const LedgerRow& r : rows)
    std::printf("  %-7s %14llu %14llu %11.1f %12.3f %12.3f\n", r.model.c_str(),
                static_cast<unsigned long long>(r.g.num_non_xor),
                static_cast<unsigned long long>(r.g.num_xor),
                r.paper.comm_bytes / 1e6, r.paper.comp_seconds,
                r.calibrated.comp_seconds);
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  double a = 0;
  f >> a;
  return json_num(a);
}

std::string context_json(const std::string& git_sha) {
  return "{\"git_sha\": " + json_str(git_sha) +
         ", \"build_type\": " + json_str(DSBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_str(__VERSION__) +
         ", \"hash_backend\": " + json_str(hash_backend().name) +
         ", \"cpu_features\": " + json_str(hash_backend_cpu_features()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"loadavg_1m\": " + loadavg() + "}";
}

// ---------------------------------------------------------------------------
// Entry points

struct Args {
  std::string workload, ledger, out_dir = ".", cache_dir, git_sha = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--cache-dir") a.cache_dir = v;
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--ledger") a.ledger = v;
    else throw std::runtime_error("unknown flag " + k);
  }
  if (a.workload.empty() == a.ledger.empty())
    throw std::runtime_error("give exactly one of --workload or --ledger");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

// The DEEPSECURE_* environment overrides (hash backend, copy data plane,
// unscheduled gate order, no io_uring) select a different program than
// the one users run; numbers taken under them would not be comparable.
void refuse_env_overrides() {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "DEEPSECURE_", 11) == 0)
      throw std::runtime_error(std::string("refusing to run with ") + *e +
                               " set: it measures a different program");
}

int run_workload(const Args& a) {
  const Workload& w = find_workload(a.workload);
  const synth::ModelSpec spec = model_spec(w.model);
  const Inputs in = make_inputs(spec, a.seed);
  // A traced run measures for --seconds in all: an untraced window (the
  // base of obs.trace_overhead_frac), then a traced one, each half long.
  const double window_s = a.trace ? a.seconds / 2 : a.seconds;
  const std::vector<double> schedule =
      w.open() ? arrival_schedule(w, window_s, a.seed) : std::vector<double>{};
  std::printf("workload %s: model %s, %s loop, %zu sessions", w.name, w.model,
              w.open() ? "Poisson open" : "closed", w.sessions);
  if (w.open())
    std::printf(", %.1f rps (%zu arrivals)", w.rate_rps, schedule.size());
  if (w.pool_target > 0) std::printf(", pooled (target %zu)", w.pool_target);
  std::printf(", seed %llu, %.0f s%s\n", static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? ", traced" : "");
  std::fflush(stdout);

  // Traced runs compile the reference first: synth.compile_s times it,
  // and the layer probes reuse it. Untraced runs load it after the window
  // so it stays out of CPU and RSS.
  std::vector<Circuit> ref;
  double compile_s = 0;
  bool ref_cached = false;
  if (a.trace) {
    g_spans.enable();
    Stopwatch sw;
    ref = synth::compile_model_layers(spec);
    compile_s = sw.seconds();
  }

  // Set-ups: all but the last are torn down straight away; the last one
  // serves the window.
  const size_t setups = a.trace ? 1 : w.setups;
  std::vector<double> setup_times;
  Rig rig;
  for (size_t k = 0; k < setups; ++k) {
    if (rig.server) tear_down(rig);
    rig = set_up(w, spec, in, a.seed);
    setup_times.push_back(rig.setup_s);
  }
  const double rss_setup_mb = peak_rss_mb();

  // Warm-up: one request per session outside the window.
  run_parallel(w.sessions, [&](size_t s) {
    (void)rig.clients[s]->infer(in.samples[s % in.samples.size()]);
  });
  wait_quiescent(rig, w);

  std::vector<double> host_ref;
  for (int k = 0; k < 3; ++k) host_ref.push_back(host_ref_ms());
  Window win = run_window(rig, w, in, schedule, window_s, 0);
  const double rss_mb = peak_rss_mb();
  for (int k = 0; k < 3; ++k) host_ref.push_back(host_ref_ms());
  Window traced;
  if (a.trace) {
    obs::set_trace_ring_capacity(size_t{1} << 16);
    obs::set_trace_enabled(true);
    traced = run_window(rig, w, in, schedule, window_s, 1'000'000);
    obs::set_trace_enabled(false);
  }
  tear_down(rig);
  const std::string server_stats = rig.server->stats_json();

  if (!a.trace) ref = reference_chain(spec, a.cache_dir, ref_cached);
  std::vector<Sample> all = win.samples;
  all.insert(all.end(), traced.samples.begin(), traced.samples.end());
  const size_t wrong = count_wrong(ref, in, spec.fmt, all);
  const size_t completed = win.completed() + traced.completed();
  const size_t attempted = win.attempted + traced.attempted;
  const size_t failed = attempted - completed + wrong;

  const LoadgenStats lg = loadgen_stats(win);
  const bool valid = lg.late_p99_ms <= 5.0;
  if (!valid)
    std::fprintf(stderr,
                 "INVALID run: generator late p99 %.3f ms > 5 ms (host busy)\n",
                 lg.late_p99_ms);

  const Metrics timings = timing_metrics(w, win);
  Metrics m;
  if (!a.trace) {
    m = end_to_end_metrics(win, setup_times, rss_mb);
  } else {
    m = timings;
    const Layers L = probe_layers(ref, in, spec.fmt, a.seed, compile_s);
    add_layer_metrics(m, L);
    const std::vector<LedgerRow> ledger = paper_ledger(L.cal);
    for (const LedgerRow& r : ledger) {
      m.push_back({"ledger." + r.model + ".and_gates",
                   static_cast<double>(r.g.num_non_xor), "count"});
      m.push_back({"ledger." + r.model + ".xor_gates",
                   static_cast<double>(r.g.num_xor), "count"});
    }
    add_runtime_metrics(m, w, rig, traced, table_bytes_per_inference(ref),
                        accounted_fraction(server_stats));
    m.push_back({"obs.trace_overhead_frac",
                 quantile(traced.latencies_ms(w.open()), 0.5) /
                         quantile(win.latencies_ms(w.open()), 0.5) -
                     1.0,
                 "ratio"});
    print_ledger(ledger);

    std::string lib = obs::chrome_trace_json();
    const std::string bench = g_spans.chrome_events();
    const size_t close = lib.rfind("],\"otherData\"");
    if (close != std::string::npos && !bench.empty())
      lib.insert(close, (lib[close - 1] == '[' ? "" : ",") + bench);
    write_file(a.out_dir + "/trace.json", lib);
    write_file(a.out_dir + "/layers.json",
               "{\"workload\": " + json_str(w.name) +
                   ", \"seed\": " + std::to_string(a.seed) +
                   ", \"metrics\": " + metrics_json(m) +
                   ", \"ledger\": " + ledger_json(ledger) +
                   ", \"server_stats\": " + server_stats +
                   ", \"global_metrics\": " + traced.global.to_json() + "}\n");
    std::printf("wrote %s/trace.json and %s/layers.json\n", a.out_dir.c_str(),
                a.out_dir.c_str());
  }

  const std::vector<double> lat = win.latencies_ms(w.open());
  const double p90 = quantile(lat, 0.9);
  const size_t beyond_p90 = static_cast<size_t>(
      std::count_if(lat.begin(), lat.end(), [&](double v) { return v > p90; }));
  std::printf("%zu attempted, %zu completed, %zu wrong; %zu latency samples "
              "(%zu beyond p90); generator late p99 %.3f ms\n",
              attempted, completed, wrong, lat.size(), beyond_p90,
              lg.late_p99_ms);
  print_metrics(m);
  if (!a.trace) {
    std::printf("not gated:\n");
    print_metrics(timings);
  }

  std::string setups_json = "[";
  for (size_t i = 0; i < setup_times.size(); ++i)
    setups_json += (i ? ", " : "") + json_num(setup_times[i]);
  setups_json += "]";
  // Of the window's requests the server answered, the share served from
  // prefetched material (the rest garbled on the request path).
  const uint64_t served = win.server.counter_value("server.inferences_served");
  const double hit_rate =
      served > 0 ? static_cast<double>(
                       win.server.counter_value("server.inferences_pooled")) /
                       static_cast<double>(served)
                 : 0.0;
  std::printf(
      "{\"report\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"valid\": %s, \"late_p99_ms\": %s, \"samples\": %zu, "
      "\"beyond_p90\": %zu, \"wrong\": %zu, \"pool_hit_rate\": %s, "
      "\"setup_s_all\": %s, \"rss_after_setup_mb\": %s, \"host_ref_ms\": %s, "
      "\"reference\": %s, \"ungated\": %s, \"context\": %s}}\n",
      json_str(w.name).c_str(), static_cast<unsigned long long>(a.seed),
      json_num(a.seconds).c_str(), a.trace ? 1 : 0, valid ? "true" : "false",
      json_num(lg.late_p99_ms).c_str(), lat.size(), beyond_p90, wrong,
      json_num(hit_rate).c_str(), setups_json.c_str(),
      json_num(rss_setup_mb).c_str(), json_num(median(host_ref)).c_str(),
      ref_cached ? "\"cached\"" : "\"compiled\"",
      metrics_json(timings).c_str(), context_json(a.git_sha).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              wrong == 0 && completed > 0 ? "true" : "false", attempted,
              failed, metrics_json(m).c_str());
  return 0;
}

// Ledger pass: the layer probes on named zoo models (one warm measured
// inference each), next to their Table 2 predictions.
int run_ledger(const Args& a) {
  std::stringstream names(a.ledger);
  std::string rows = "[";
  for (std::string name; std::getline(names, name, ',');) {
    const synth::ModelSpec spec = model_spec(name);
    const Inputs in = make_inputs(spec, a.seed);
    Stopwatch sw;
    const std::vector<Circuit> chain = synth::compile_model_layers(spec);
    const Layers L = probe_layers(chain, in, spec.fmt, a.seed, sw.seconds());
    Metrics m;
    add_layer_metrics(m, L);
    std::printf("%s (%zu circuits):\n", name.c_str(), chain.size());
    print_metrics(m);
    rows += (rows.size() > 1 ? ", " : "") + std::string("{\"model\": ") +
            json_str(name) + ", \"metrics\": " + metrics_json(m) + "}";
  }
  rows += "]";
  write_file(a.out_dir + "/ledger.json",
             "{\"context\": " + context_json(a.git_sha) + ", \"models\": " +
                 rows + "}\n");
  std::printf("wrote %s/ledger.json\n", a.out_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    refuse_env_overrides();
    const Args a = parse_args(argc, argv);
    return a.ledger.empty() ? run_workload(a) : run_ledger(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepsecure_bench: %s\n", e.what());
    return 2;
  }
}
