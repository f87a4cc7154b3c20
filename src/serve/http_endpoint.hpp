#pragma once
// Minimal plain-text HTTP scrape endpoint on the serve event loop: a second
// Listener whose connections speak just enough HTTP/1.0 for a health probe
// and a metrics scraper.
//
//   GET /healthz  -> 200 "ok\n"
//   GET /metrics  -> 200 telemetry JSON (serve.*, engine.* and runtime.*,
//                    the STATS_REPLY body)
//   anything else -> 404 (or 405 for non-GET methods)
//
// One request per connection (Connection: close), bodies produced on the
// loop thread by the registered handlers, no frameworks, no new
// dependencies. Requests are capped at 4 KB — scrape clients send a handful
// of header lines; anything bigger is not a scraper.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "core/thread_annotations.hpp"
#include "serve/event_loop.hpp"

namespace swc::serve {

class HttpEndpoint {
 public:
  struct Handlers {
    std::function<std::string()> healthz;  // body for GET /healthz
    std::function<std::string()> metrics;  // body for GET /metrics
  };

  // Binds 127.0.0.1:port (0 = ephemeral) on the given loop. Same lifetime
  // discipline as Listener: construct before the loop runs (or on the loop
  // thread), destroy after it stops.
  HttpEndpoint(EventLoop& loop, std::uint16_t port, Handlers handlers);
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

 private:
  struct Conn {
    std::string request;   // accumulated until the blank line
    std::string response;  // fully rendered, then drained
    std::size_t sent = 0;
    bool responding = false;
  };

  void on_accept(int fd) SWC_REQUIRES(loop_role);
  void on_event(int fd, std::uint32_t events) SWC_REQUIRES(loop_role);
  void on_readable(int fd, Conn& conn) SWC_REQUIRES(loop_role);
  void on_writable(int fd, Conn& conn) SWC_REQUIRES(loop_role);
  void respond(int fd, Conn& conn) SWC_REQUIRES(loop_role);
  void close_conn(int fd) SWC_REQUIRES(loop_role);

  EventLoop& loop_;
  Handlers handlers_;
  std::unordered_map<int, Conn> conns_ SWC_GUARDED_BY(loop_role);
  Listener listener_;  // last: its accept callback touches the members above
};

}  // namespace swc::serve
