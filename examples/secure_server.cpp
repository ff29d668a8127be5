// Secure inference server: loads the demo model once and serves
// concurrent private-inference sessions over TCP until interrupted.
//
//   ./example_secure_server [port] [max_sessions] [idle_timeout_ms]
//
// Pair with example_secure_client, which owns the data samples.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "demo_model.h"
#include "runtime/server.h"

namespace {
std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }
}  // namespace

int main(int argc, char** argv) {
  using namespace deepsecure;

  runtime::ServerConfig cfg;
  cfg.port = argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 31337;
  cfg.max_sessions = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 8;
  if (argc > 3) cfg.idle_timeout_ms = static_cast<uint64_t>(std::atoll(argv[3]));

  runtime::InferenceServer server(demo::demo_spec(), demo::demo_weight_bits(),
                                  cfg);
  server.start();
  std::printf("secure_server: model '%s' loaded, listening on 127.0.0.1:%u "
              "(max %zu concurrent sessions)\n",
              demo::demo_spec().name.c_str(), server.port(), cfg.max_sessions);
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("secure_server: shutting down (%llu sessions, %llu inferences "
              "served, %llu from prefetched material)\n",
              static_cast<unsigned long long>(server.sessions_accepted()),
              static_cast<unsigned long long>(server.inferences_served()),
              static_cast<unsigned long long>(server.inferences_pooled()));
  server.stop();
  // Full stats after stop(): every teardown has settled, so the phase
  // histograms cover each session end to end.
  std::printf("secure_server: stats %s\n", server.stats_json().c_str());
  return 0;
}
