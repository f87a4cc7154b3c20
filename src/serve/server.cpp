#include "serve/server.hpp"

namespace swc::serve {

Server::Server(ServerOptions options)
    : engine_([&] {
        runtime::FrameServerOptions engine_options;
        engine_options.workers = options.workers;
        engine_options.queue_capacity = options.queue_capacity;
        engine_options.shards = options.shards;
        engine_options.pin_threads = options.pin_threads;
        return engine_options;
      }()),
      sessions_(loop_, engine_, options.limits),
      options_(options) {}

Server::~Server() { stop(); }

void Server::start() {
  listener_ = std::make_unique<Listener>(loop_, options_.port, [this](int fd) {
    loop_.assert_on_loop_thread();  // accept path: re-establish loop_role
    sessions_.adopt_socket(fd);
  });
  port_ = listener_->port();
  if (options_.http_port.has_value()) {
    http_ = std::make_unique<HttpEndpoint>(
        loop_, *options_.http_port,
        HttpEndpoint::Handlers{
            .healthz = [] { return std::string("ok\n"); },
            .metrics = [this] { return sessions_.metrics_json(); },
        });
    http_port_ = http_->port();
  }
  thread_ = std::thread([this] { loop_.run(); });
}

void Server::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (thread_.joinable()) {
    // close_all runs in the loop's final drain; the loop then exits and the
    // on_connection_closed notices it posted are dropped (sessions are torn
    // down wholesale by ~SessionManager instead).
    loop_.post([this] {
      loop_.assert_on_loop_thread();  // posted closure: re-establish loop_role
      sessions_.close_all("server-shutdown");
    });
    loop_.stop();
    thread_.join();
  }
  listener_.reset();  // single-threaded now; removing the fd is safe
  http_.reset();      // likewise: drops any half-served scrape connections
  // Drain in-flight engine work while sessions_ and loop_ are still alive:
  // completion callbacks dereference the session manager to post into the
  // loop, and those posts must land in memory that still exists (they are
  // then dropped by the stopped loop, never run).
  engine_.wait_idle();
}

}  // namespace swc::serve
