// The serve daemon harness: bind, print the port, compress frames for
// anyone who connects until SIGINT/SIGTERM, then print the serve, engine
// and runtime telemetry on the way out.
//
//   $ run_serve --port 7033 --workers 8 &
//   $ serve_soak    # or any SyncClient / loadgen
//
// Loopback-only by design (the fronting proxy owns the public edge).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "resources/device.hpp"
#include "serve/server.hpp"

namespace {

long arg_value(int argc, char** argv, const char* name, long fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atol(argv[i + 1]);
  }
  return fallback;
}

const char* arg_string(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

// "--rate bpp:0.8" / "--rate mse:4.0" -> server-side rate-control preset for
// sessions that do not negotiate their own target at HELLO.
bool parse_rate_preset(const char* text, swc::core::RateControlConfig& out) {
  const char* colon = std::strchr(text, ':');
  if (colon == nullptr || colon == text) return false;
  const std::string mode(text, static_cast<std::size_t>(colon - text));
  if (mode == "bpp") {
    out.mode = swc::core::RateControlMode::BitsPerPixel;
  } else if (mode == "mse") {
    out.mode = swc::core::RateControlMode::Mse;
  } else {
    return false;
  }
  char* end = nullptr;
  out.target = std::strtod(colon + 1, &end);
  return end != colon + 1 && *end == '\0' && out.target > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using swc::serve::Server;
  using swc::serve::ServerOptions;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: run_serve [--port N] [--workers N] [--queue N] [--max-sessions N]\n"
          "                 [--realtime-inflight N] [--bulk-inflight N]\n"
          "                 [--rate bpp:<t>|mse:<t>] [--device NAME|none]\n"
          "                 [--http-port N]\n"
          "  --rate sets the default rate-control preset for sessions whose\n"
          "         HELLO does not negotiate a rate target of its own\n"
          "  --device sets the capacity-planner part profile for admission\n"
          "         (default XC7Z020; 'none' disables cost-based admission)\n"
          "  --http-port enables the plain-text scrape listener\n"
          "         (GET /healthz, GET /metrics); 0 picks an ephemeral port\n");
      return 0;
    }
  }

  ServerOptions options;
  options.port = static_cast<std::uint16_t>(arg_value(argc, argv, "--port", 0));
  options.workers = static_cast<std::size_t>(arg_value(argc, argv, "--workers", 4));
  options.queue_capacity = static_cast<std::size_t>(arg_value(argc, argv, "--queue", 64));
  options.limits.max_sessions =
      static_cast<std::size_t>(arg_value(argc, argv, "--max-sessions", 512));
  options.limits.realtime_max_inflight =
      static_cast<std::size_t>(arg_value(argc, argv, "--realtime-inflight", 4));
  options.limits.bulk_max_inflight =
      static_cast<std::size_t>(arg_value(argc, argv, "--bulk-inflight", 8));

  if (const char* http = arg_string(argc, argv, "--http-port", nullptr)) {
    options.http_port = static_cast<std::uint16_t>(std::atol(http));
  }

  if (const char* device = arg_string(argc, argv, "--device", nullptr)) {
    if (std::strcmp(device, "none") == 0) {
      options.limits.device = std::nullopt;
    } else if (const auto* dev = swc::resources::device_by_name(device)) {
      options.limits.device = *dev;
    } else {
      std::fprintf(stderr, "run_serve: unknown --device %s (known:", device);
      for (const auto& known : swc::resources::kDeviceTable) {
        std::fprintf(stderr, " %s", known.name);
      }
      std::fprintf(stderr, " none)\n");
      return 2;
    }
  }

  if (const char* rate = arg_string(argc, argv, "--rate", nullptr)) {
    swc::core::RateControlConfig preset;
    if (!parse_rate_preset(rate, preset)) {
      std::fprintf(stderr, "run_serve: bad --rate %s (want bpp:<t> or mse:<t>)\n", rate);
      return 2;
    }
    options.limits.default_rate = preset;
  }

  // Block the shutdown signals before any thread spawns so they are only
  // ever delivered to the sigwait below.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_serve: %s\n", e.what());
    return 1;
  }
  std::printf("run_serve: listening on 127.0.0.1:%u (%zu workers, queue %zu, device %s)\n",
              server.port(), options.workers, options.queue_capacity,
              options.limits.device.has_value() ? options.limits.device->name : "none");
  if (server.http_port() != 0) {
    std::printf("run_serve: scrape endpoint on 127.0.0.1:%u (/healthz, /metrics)\n",
                server.http_port());
  }
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  std::printf("run_serve: caught %s, shutting down\n", sig == SIGINT ? "SIGINT" : "SIGTERM");

  server.stop();
  std::printf("%s\n", server.metrics_json().c_str());
  return 0;
}
