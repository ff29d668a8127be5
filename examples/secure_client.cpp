// Secure inference client: connects to example_secure_server and runs
// private inferences on locally-owned samples. The server never sees the
// sample; the client never sees the weights.
//
//   ./example_secure_client [host] [port] [n_requests] [prefetch] [async]
//                           [--stats]
//
// --stats asks the server for its runtime counters (protocol v5 kStats
// round trip) after the requests finish and prints the JSON document —
// session and phase counters, and the resilience block.
//
// With prefetch > 0 the client garbles instances in the background and
// pushes them to the server ahead of requests (the offline/online
// split): each request then ships only the active input labels, so the
// per-request latency drops to transfer + evaluation. async = 1 refills
// the server through the dedicated v4 prefetch lane concurrently with
// requests.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "demo_model.h"
#include "runtime/client.h"
#include "support/stopwatch.h"

int main(int argc, char** argv) {
  using namespace deepsecure;

  // Flags may appear anywhere; strip them before positional parsing.
  bool want_stats = false;
  int argn = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--stats")
      want_stats = true;
    else
      argv[argn++] = argv[i];
  }
  argc = argn;

  const std::string host = argc > 1 ? argv[1] : "127.0.0.1";
  const uint16_t port =
      argc > 2 ? static_cast<uint16_t>(std::atoi(argv[2])) : 31337;
  const size_t n = argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 4;

  runtime::ClientConfig cfg;
  const size_t prefetch = argc > 4 ? static_cast<size_t>(std::atoi(argv[4])) : 0;
  cfg.pool_target = prefetch;
  cfg.async_prefetch = argc > 5 && std::atoi(argv[5]) != 0;
  // Refill between requests via an explicit top_up() call below (a
  // no-op nudge under the async lane), so the printed per-request
  // latency is the online phase alone (synchronous auto_top_up would
  // fold the next artifact's push into the request tail).
  cfg.auto_top_up = false;

  runtime::InferenceClient client(host, port, demo::demo_spec(), cfg);
  std::printf("secure_client: connected to %s:%u (chain ok, %zu input bits)\n",
              host.c_str(), port, client.input_bits());
  if (prefetch > 0) {
    Stopwatch sw;
    const size_t warmed = client.prefetch(prefetch);
    std::printf("secure_client: %zu garbled instances prefetched in %.1f ms "
                "(offline phase)\n",
                warmed, sw.seconds() * 1e3);
  }

  for (size_t k = 0; k < n; ++k) {
    const uint64_t pooled_before = client.pooled_inferences();
    Stopwatch sw;
    const size_t label = client.infer(demo::demo_sample(k));
    std::printf("  sample %zu -> label %zu  (%.1f ms, %s)\n", k, label,
                sw.seconds() * 1e3,
                client.pooled_inferences() > pooled_before
                    ? "pooled online phase"
                    : "on-demand");
    if (prefetch > 0) client.top_up();  // refill outside the timed window
  }
  const SessionTrace& t = client.trace();
  std::printf("secure_client: done. setup %.1f ms, garble %.1f ms, "
              "transfer %.1f ms over %zu layer runs\n",
              t.setup_s * 1e3, t.sum_garble() * 1e3,
              [&] {
                double ot = 0;
                for (const auto& p : t.phases) ot += p.ot_s;
                return ot * 1e3;
              }(),
              t.phases.size());
  if (want_stats)
    std::printf("secure_client: server stats\n%s\n",
                client.server_stats().c_str());
  client.close();
  return 0;
}
