#pragma once
// Session layer: per-connection stream state, admission control, and the
// end-to-end backpressure wiring between the socket and the engine.
//
// One connection is one session is one FrameServer stream. Admission is
// enforced at HELLO (max_sessions), then per-frame by QoS tier:
//
//   tier      engine submit policy      overload behavior
//   --------  ------------------------  ---------------------------------
//   realtime  SubmitPolicy::Reject      FRAME_DONE{rejected-busy} on the
//                                       wire — fail fast, never queue
//   bulk      blocking backpressure     frame parked (bounded by what one
//             realized as a connection  read chunk can carry), EPOLLIN
//             read pause                dropped -> TCP throttles the peer
//
// The bulk path is SubmitPolicy::Block semantics moved off-thread: instead
// of blocking the reactor on the engine's bounded queue, the session parks
// the frame, pauses the socket, and retries on the next engine completion
// (a full queue guarantees completions are coming). Every buffer on the
// path — parser, parked frames, write queue, engine queue — is bounded, so
// a slow engine surfaces as a closed TCP window at the client, never as
// server memory growth.
//
// Everything here runs on the EventLoop thread — statically enforced: the
// session table and every handler are SWC_REQUIRES(loop_role) /
// SWC_GUARDED_BY(loop_role). Engine completions arrive via loop.post() from
// worker threads; the posted closure re-establishes the capability with
// EventLoop::assert_on_loop_thread() before touching session state. The
// metrics snapshot is the one mutex-guarded piece, only because
// Server::stats() reads it from outside the loop.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

#include "core/rate_control.hpp"
#include "resources/composition.hpp"
#include "resources/device.hpp"
#include "runtime/frame_server.hpp"
#include "serve/connection.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "telemetry/telemetry.hpp"

namespace swc::serve {

// Admission-control and buffering limits of one server instance.
struct ServeLimits {
  // Device profile for cost-based admission: every HELLO's geometry/backend
  // maps through hw::PipelineSpec to a planner cost, and the session is
  // admitted only while the composed design still fits this part (the
  // rejection ERROR names the binding constraint). nullopt disables the
  // planner and falls back to counting alone; max_sessions below remains a
  // hard cap either way.
  std::optional<resources::Device> device = resources::kXC7Z020;
  std::size_t max_sessions = 512;
  std::size_t realtime_max_inflight = 4;  // per-session in-flight cap (Reject tier)
  std::size_t bulk_max_inflight = 8;      // per-session in-flight cap (Block tier)
  std::size_t max_payload = kDefaultMaxPayload;
  std::size_t write_buffer_cap = std::size_t{4} << 20;  // per-connection outbound bound
  // Server-side rate-control preset (run_serve --rate=bpp:<t>|mse:<t>).
  // Applied to sessions whose HELLO carries RateMode::None; a client that
  // negotiates its own rate target always wins over the preset.
  std::optional<core::RateControlConfig> default_rate{};
};

// Process-global serve.* metric names (same idiom as core::EngineMetricIds).
struct ServeMetricIds {
  telemetry::MetricId sessions_opened;            // counter
  telemetry::MetricId sessions_closed;            // counter
  telemetry::MetricId sessions_rejected;          // counter: admission refusals
  telemetry::MetricId sessions_rejected_capacity; // counter: planner does-not-fit refusals
  telemetry::MetricId frames_accepted;            // counter
  telemetry::MetricId frames_completed;           // counter
  telemetry::MetricId frames_rejected_busy;       // counter: realtime wire rejections
  telemetry::MetricId frames_rejected_shutdown;   // counter
  telemetry::MetricId frames_bad;                 // counter: geometry-mismatched payloads
  telemetry::MetricId frames_orphaned;            // counter: completion after disconnect
  telemetry::MetricId read_pauses;                // counter: pause transitions
  telemetry::MetricId parked_frames;              // gauge: worst per-session parked depth
  telemetry::MetricId frame_latency;              // histogram: submit->complete ns

  [[nodiscard]] static const ServeMetricIds& get();
};

class SessionManager : public Connection::Handler {
 public:
  SessionManager(EventLoop& loop, runtime::FrameServer& engine, ServeLimits limits);

  // Takes ownership of a freshly accepted nonblocking socket (loop thread).
  void adopt_socket(int fd) SWC_REQUIRES(loop_role);

  // Abruptly close every connection (loop thread; used at server shutdown).
  void close_all(const char* reason) SWC_REQUIRES(loop_role);

  // Connection::Handler. The overrides stay unannotated to match the
  // interface; their bodies re-establish loop_role at runtime via
  // loop_.assert_on_loop_thread() before entering the REQUIRES'd internals.
  void on_message(Connection& conn, Message&& msg) override;
  void on_connection_closed(std::uint64_t conn_id, const char* reason) override;

  // Sessions past HELLO admission. Thread-safe (atomic).
  [[nodiscard]] std::size_t active_sessions() const noexcept {
    return active_sessions_.load(std::memory_order_acquire);
  }

  // Copy of the serve.* metrics. Thread-safe.
  [[nodiscard]] telemetry::Snapshot metrics() const SWC_EXCLUDES(metrics_mutex_);

  // The serve.* metrics merged with the engine's runtime aggregate
  // (engine.*, runtime.*) as one JSON document: the STATS_REPLY body and
  // the GET /metrics body. Thread-safe.
  [[nodiscard]] std::string metrics_json() const SWC_EXCLUDES(metrics_mutex_);

 private:
  enum class State : std::uint8_t { AwaitingHello, Active };

  struct ParkedFrame {
    std::uint64_t seq = 0;
    image::ImageU8 frame;
  };

  struct Session {
    std::unique_ptr<Connection> conn;
    State state = State::AwaitingHello;
    QosTier qos = QosTier::Bulk;
    std::uint32_t stream_id = 0;
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::size_t max_inflight = 0;
    std::size_t inflight = 0;  // accepted into the engine, completion pending
    // Bulk frames awaiting queue space. Bounded in bytes by construction:
    // reads pause the moment one frame parks, so the deque never holds more
    // than the already-consumed read chunk's worth of frames.
    std::deque<ParkedFrame> parked;
    // Planner membership of this session's pipeline (0 = not planner-admitted,
    // either AwaitingHello or the planner is disabled).
    resources::Composition::MemberId planner_member = 0;
    bool paused_by_backpressure = false;
    bool goodbye = false;  // drain in-flight + parked, then close
  };

  void handle_hello(Session& session, const Message& msg) SWC_REQUIRES(loop_role);
  void handle_submit(Session& session, Message&& msg) SWC_REQUIRES(loop_role);
  void handle_stats(Session& session, const Message& msg) SWC_REQUIRES(loop_role);
  void handle_goodbye(Session& session) SWC_REQUIRES(loop_role);
  void protocol_error(Session& session, ErrorCode code, const std::string& text)
      SWC_REQUIRES(loop_role);

  // Submit one frame into the engine; sends the wire-level rejection itself
  // when the engine refuses and the tier fails fast. Returns false when the
  // frame must be parked (bulk tier, queue full).
  bool dispatch_frame(Session& session, std::uint64_t seq, image::ImageU8 frame)
      SWC_REQUIRES(loop_role);
  void drain_parked() SWC_REQUIRES(loop_role);
  void update_backpressure(Session& session) SWC_REQUIRES(loop_role);
  void maybe_finish_goodbye(Session& session) SWC_REQUIRES(loop_role);
  void on_engine_done(std::uint64_t conn_id, runtime::FrameResult result)
      SWC_REQUIRES(loop_role);
  void send_message(Session& session, MsgType type, std::uint64_t seq,
                    std::span<const std::uint8_t> payload) SWC_REQUIRES(loop_role);
  void count(telemetry::MetricId id, std::uint64_t delta = 1) SWC_EXCLUDES(metrics_mutex_);

  EventLoop& loop_;
  runtime::FrameServer& engine_;
  const ServeLimits limits_;

  std::uint64_t next_conn_id_ SWC_GUARDED_BY(loop_role) = 1;
  std::unordered_map<std::uint64_t, Session> sessions_ SWC_GUARDED_BY(loop_role);
  // Composed design of every admitted session's pipeline, trial-fitted
  // against limits_.device at HELLO and released on close.
  resources::Composition planner_ SWC_GUARDED_BY(loop_role);
  // retry order for bulk frames
  std::vector<std::uint64_t> parked_sessions_ SWC_GUARDED_BY(loop_role);
  std::atomic<std::size_t> active_sessions_{0};

  mutable swc::Mutex metrics_mutex_;
  telemetry::Snapshot metrics_ SWC_GUARDED_BY(metrics_mutex_);
};

}  // namespace swc::serve
