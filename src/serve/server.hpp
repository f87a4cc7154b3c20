#pragma once
// Server: the assembled serve stack — one EventLoop thread accepting
// loopback TCP connections, a SessionManager mapping each connection onto a
// FrameServer stream, and the FrameServer worker pool doing the compression.
//
//   socket bytes -> FrameParser -> SessionManager -> FrameServer queue
//        ^                                                |
//        +--- EPOLLIN dropped when parked/at-cap ---------+  (backpressure)
//
// start() binds (port 0 => ephemeral, see port()) and spawns the loop
// thread; stop() closes every connection, stops the loop, and joins. The
// destructor stops implicitly. Thread-safe accessors: port(),
// active_sessions(), serve_metrics(), metrics_json(), engine().

#include <cstdint>
#include <optional>
#include <string>
#include <thread>

#include "runtime/frame_server.hpp"
#include "serve/event_loop.hpp"
#include "serve/http_endpoint.hpp"
#include "serve/session.hpp"

namespace swc::serve {

struct ServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;  // the worker pool's frame budget
  ServeLimits limits;
  // Plain-text scrape listener (GET /healthz, GET /metrics) on the same
  // event loop. nullopt = disabled; 0 = ephemeral, read back via http_port().
  std::optional<std::uint16_t> http_port{};
};

class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Bind + listen + spawn the loop thread. Throws std::system_error on bind
  // failure. Idempotent-hostile: call exactly once.
  void start();

  // Close all connections, stop the loop, join. Safe to call twice.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  // Bound scrape-listener port; 0 when options.http_port was nullopt.
  [[nodiscard]] std::uint16_t http_port() const noexcept { return http_port_; }
  [[nodiscard]] std::size_t active_sessions() const noexcept {
    return sessions_.active_sessions();
  }
  [[nodiscard]] telemetry::Snapshot serve_metrics() const { return sessions_.metrics(); }
  // serve.* merged with the engine's engine.* and runtime.* metrics: the
  // GET /metrics and STATS_REPLY body. Still complete after stop().
  [[nodiscard]] std::string metrics_json() const { return sessions_.metrics_json(); }

  // The underlying engine (stats(), wait_idle()). Note: submitting frames
  // through it directly from other threads races the serve layer's
  // queue-capacity assumptions; treat it as read-mostly.
  [[nodiscard]] runtime::FrameServer& engine() noexcept { return engine_; }

 private:
  // Declaration order is teardown order in reverse, and it is load-bearing:
  // ~FrameServer drains worker callbacks that post() into loop_, so loop_
  // must outlive engine_ (posts into a stopped loop are dropped, never
  // dereferenced). sessions_ holds Connections registered with loop_, so it
  // too dies before loop_. listener_/thread_ are torn down first by stop().
  EventLoop loop_;
  runtime::FrameServer engine_;
  SessionManager sessions_;
  ServerOptions options_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<HttpEndpoint> http_;
  std::thread thread_;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
  bool stopped_ = false;
};

}  // namespace swc::serve
