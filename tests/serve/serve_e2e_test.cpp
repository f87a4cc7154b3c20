// End-to-end serve-layer tests over real loopback sockets: handshake,
// frame completions, QoS behavior (realtime rejections, bulk backpressure
// completeness), admission control, per-frame and protocol-level error
// paths, orphaned completions after abrupt disconnect, and a scaled-down
// loadgen soak.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hw/pipeline_spec.hpp"
#include "resources/composition.hpp"
#include "resources/device.hpp"
#include "serve/client/loadgen.hpp"
#include "serve/client/sync_client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace swc::serve {
namespace {

using client::SyncClient;

std::vector<std::uint8_t> test_pixels(std::uint32_t width, std::uint32_t height) {
  std::vector<std::uint8_t> pixels(static_cast<std::size_t>(width) * height);
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<std::uint8_t>((i * 31 + i / width) & 0xFF);
  }
  return pixels;
}

HelloPayload bulk_hello(std::uint32_t size = 64) {
  HelloPayload hello;
  hello.qos = QosTier::Bulk;
  hello.width = size;
  hello.height = size;
  hello.window = 8;
  hello.threshold = 2;
  hello.name = "e2e";
  return hello;
}

// Polls `predicate` until true or the deadline passes (loop-thread work like
// orphan accounting lands asynchronously after socket-level events). The
// deadline is a hang guard, not a latency bound: under ThreadSanitizer on a
// loaded host four 256x256 frames on one worker take seconds.
bool eventually(const std::function<bool()>& predicate,
                std::chrono::milliseconds deadline = std::chrono::seconds(30)) {
  const auto t1 = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < t1) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

TEST(ServeE2E, HelloFramesStatsGoodbye) {
  Server server({.port = 0, .workers = 2, .queue_capacity = 16, .limits = {}});
  server.start();

  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  conn.hello(bulk_hello());

  const auto pixels = test_pixels(64, 64);
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    conn.send_frame(seq, pixels);
    const auto reply = conn.read_message();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.type, MsgType::FrameDone);
    EXPECT_EQ(reply->header.seq, seq);
    const auto done = decode_frame_done(reply->payload);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->status, FrameStatus::Ok);
    EXPECT_GT(done->latency_ns, 0u);
    EXPECT_GT(done->payload_bits, 0u);
  }

  conn.send_stats(100);
  const auto stats = conn.read_message();
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->header.type, MsgType::StatsReply);
  const std::string json(stats->payload.begin(), stats->payload.end());
  EXPECT_NE(json.find("serve.frames_completed"), std::string::npos);
  EXPECT_NE(json.find("serve.frame_latency"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  conn.send_goodbye();
  while (conn.read_message()) {
  }

  // Server-side telemetry: completions counted, latency histogram populated.
  const auto& ids = ServeMetricIds::get();
  EXPECT_TRUE(eventually([&] {
    return server.serve_metrics().value(ids.frames_completed) == 8;
  }));
  const auto metrics = server.serve_metrics();
  EXPECT_EQ(metrics.value(ids.sessions_opened), 1u);
  EXPECT_GT(metrics.percentile(ids.frame_latency, 0.5), 0.0);
  EXPECT_TRUE(eventually([&] { return server.active_sessions() == 0; }));
  server.stop();

  // The exit report run_serve prints: stop() has closed every stream, yet
  // the engine and runtime counters are still there next to serve.*.
  const std::string exit_json = server.metrics_json();
  EXPECT_NE(exit_json.find("serve.frames_completed"), std::string::npos);
  EXPECT_NE(exit_json.find("engine.windows"), std::string::npos);
  EXPECT_NE(exit_json.find("runtime.arena.dropped"), std::string::npos);
}

TEST(ServeE2E, RealtimeTierRejectsOnTheWireWhenSaturated) {
  ServerOptions options{.port = 0, .workers = 1, .queue_capacity = 1, .limits = {}};
  options.limits.realtime_max_inflight = 1;
  Server server(options);
  server.start();

  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  auto hello = bulk_hello();
  hello.qos = QosTier::Realtime;
  conn.hello(hello);

  // Flood without reading: with one worker and a one-frame in-flight cap,
  // most of these must come back rejected-busy — visibly, never dropped.
  const auto pixels = test_pixels(64, 64);
  constexpr std::uint64_t kFrames = 16;
  for (std::uint64_t seq = 1; seq <= kFrames; ++seq) conn.send_frame(seq, pixels);

  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    const auto reply = conn.read_message();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.type, MsgType::FrameDone);
    const auto done = decode_frame_done(reply->payload);
    ASSERT_TRUE(done.has_value());
    (done->status == FrameStatus::Ok ? ok : rejected) += 1;
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(ok + rejected, kFrames);  // every frame answered

  const auto& ids = ServeMetricIds::get();
  EXPECT_EQ(server.serve_metrics().value(ids.frames_rejected_busy), rejected);
  server.stop();
}

TEST(ServeE2E, BulkTierDeliversEveryFrameUnderBackpressure) {
  // Tiny engine queue + in-flight cap: the session must park frames and
  // pause socket reads, yet every frame still completes exactly once.
  ServerOptions options{.port = 0, .workers = 2, .queue_capacity = 2, .limits = {}};
  options.limits.bulk_max_inflight = 2;
  Server server(options);
  server.start();

  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  conn.hello(bulk_hello());

  const auto pixels = test_pixels(64, 64);
  constexpr std::uint64_t kFrames = 64;
  for (std::uint64_t seq = 1; seq <= kFrames; ++seq) conn.send_frame(seq, pixels);

  std::vector<bool> seen(kFrames + 1, false);
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    const auto reply = conn.read_message();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.type, MsgType::FrameDone);
    const auto done = decode_frame_done(reply->payload);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->status, FrameStatus::Ok);
    ASSERT_GE(reply->header.seq, 1u);
    ASSERT_LE(reply->header.seq, kFrames);
    EXPECT_FALSE(seen[reply->header.seq]) << "duplicate FRAME_DONE";
    seen[reply->header.seq] = true;
  }

  const auto& ids = ServeMetricIds::get();
  const auto metrics = server.serve_metrics();
  EXPECT_EQ(metrics.value(ids.frames_completed), kFrames);
  EXPECT_EQ(metrics.value(ids.frames_rejected_busy), 0u);
  // The tiny queue forces at least one pause/park cycle.
  EXPECT_GE(metrics.value(ids.read_pauses), 1u);
  server.stop();
}

TEST(ServeE2E, AdmissionControlRefusesBeyondMaxSessions) {
  ServerOptions options;
  options.limits.max_sessions = 1;
  Server server(options);
  server.start();

  SyncClient first({.host = "127.0.0.1", .port = server.port()});
  first.hello(bulk_hello());

  SyncClient second({.host = "127.0.0.1", .port = server.port()});
  try {
    second.hello(bulk_hello());
    FAIL() << "second HELLO should have been refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("max sessions"), std::string::npos);
  }
  EXPECT_EQ(server.serve_metrics().value(ServeMetricIds::get().sessions_rejected), 1u);
  server.stop();
}

TEST(ServeE2E, CapacityAdmissionRejectsWithBindingConstraintOnTheWire) {
  // Cost-based admission: the default device profile (XC7Z020) fits a known
  // number of w8 64x64 pipelines before the LUT budget binds; the next HELLO
  // must be refused with the binding constraint named on the wire, even
  // though max_sessions alone would have admitted it.
  hw::PipelineSpec spec;
  spec.geometry = {64, 64, 8};
  spec.threshold = 2;
  const std::size_t planner_capacity =
      resources::Composition::capacity(spec, resources::kXC7Z020);
  ASSERT_GT(planner_capacity, 0u);

  ServerOptions options;
  options.limits.max_sessions = planner_capacity + 8;  // counting would admit all
  Server server(options);
  server.start();

  std::vector<std::unique_ptr<SyncClient>> admitted;
  std::string rejection;
  for (std::size_t i = 0; i < planner_capacity + 1; ++i) {
    auto conn = std::make_unique<SyncClient>(
        SyncClient::Options{.host = "127.0.0.1", .port = server.port()});
    try {
      conn->hello(bulk_hello());
      admitted.push_back(std::move(conn));
    } catch (const std::runtime_error& e) {
      rejection = e.what();
      break;
    }
  }
  EXPECT_EQ(admitted.size(), planner_capacity);
  EXPECT_NE(rejection.find("capacity: luts"), std::string::npos) << rejection;
  EXPECT_NE(rejection.find("XC7Z020"), std::string::npos) << rejection;
  EXPECT_EQ(server.serve_metrics().value(ServeMetricIds::get().sessions_rejected_capacity), 1u);

  // Closing an admitted session releases its pipeline's share of the design;
  // the next HELLO fits again.
  admitted.back()->send_goodbye();
  while (admitted.back()->read_message()) {
  }
  admitted.pop_back();
  ASSERT_TRUE(eventually([&] { return server.active_sessions() == planner_capacity - 1; }));
  SyncClient readmitted({.host = "127.0.0.1", .port = server.port()});
  EXPECT_NO_THROW(readmitted.hello(bulk_hello()));
  server.stop();
}

TEST(ServeE2E, HttpEndpointServesHealthzAndMetrics) {
  ServerOptions options;
  options.http_port = 0;  // ephemeral
  Server server(options);
  server.start();
  ASSERT_NE(server.http_port(), 0);

  // Plain blocking socket: the scrape endpoint speaks HTTP/1.0, one request
  // per connection, response terminated by server close.
  const auto http_get = [&](const std::string& target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.http_port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };

  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("metrics"), std::string::npos);
  // The scrape serves what STATS_REPLY serves, runtime arena counters included.
  EXPECT_NE(metrics.find("runtime.arena.retained_bytes"), std::string::npos) << metrics;

  const std::string missing = http_get("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  server.stop();
}

TEST(ServeE2E, BadGeometryIsRefusedAtHello) {
  Server server;
  server.start();
  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  auto hello = bulk_hello();
  hello.window = 7;  // odd window: engine validation must reject
  EXPECT_THROW(conn.hello(hello), std::runtime_error);
  server.stop();
}

TEST(ServeE2E, UnknownBackendIsRefusedAtHello) {
  Server server;
  server.start();
  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  auto hello = bulk_hello();
  hello.backend = "vaporware";
  try {
    conn.hello(hello);
    FAIL() << "HELLO with an unregistered backend must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("backend"), std::string::npos) << e.what();
  }
  server.stop();
}

TEST(ServeE2E, BackendAndRateTargetNegotiateAtHello) {
  // A legall53 stream with a closed-loop bpp target: frames must complete
  // Ok and report compressed bits, proving the backend + controller ran.
  Server server({.port = 0, .workers = 2, .queue_capacity = 16, .limits = {}});
  server.start();
  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  auto hello = bulk_hello();
  hello.threshold = 0;
  hello.backend = "legall53";
  hello.rate_mode = RateMode::BitsPerPixel;
  hello.rate_target_milli = 500;  // 0.5 bpp — far below lossless, forces adaptation
  conn.hello(hello);

  const auto pixels = test_pixels(64, 64);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    conn.send_frame(seq, pixels);
    const auto reply = conn.read_message();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.type, MsgType::FrameDone);
    const auto done = decode_frame_done(reply->payload);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->status, FrameStatus::Ok);
    EXPECT_GT(done->payload_bits, 0u);
  }
  server.stop();
}

TEST(ServeE2E, SessionTeardownRetiresEngineStream) {
  // The leak fix: each connection's engine stream must be closed with the
  // session, so repeated connect/hello/disconnect cycles keep the engine's
  // slot table bounded (ids recycle) instead of growing monotonically.
  Server server({.port = 0, .workers = 1, .queue_capacity = 8, .limits = {}});
  server.start();
  for (int cycle = 0; cycle < 12; ++cycle) {
    SyncClient conn({.host = "127.0.0.1", .port = server.port()});
    conn.hello(bulk_hello());
    conn.send_frame(1, test_pixels(64, 64));
    const auto reply = conn.read_message();
    ASSERT_TRUE(reply.has_value());
    conn.send_goodbye();
    EXPECT_FALSE(conn.read_message().has_value());  // server closes after draining
  }
  EXPECT_TRUE(eventually([&] { return server.engine().active_streams() == 0; }));
  EXPECT_LE(server.engine().stream_slots(), 2u);  // closing cycle may overlap the next open
  server.stop();
}

TEST(ServeE2E, WrongSizedFrameGetsBadFrameNotDisconnect) {
  Server server;
  server.start();
  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  conn.hello(bulk_hello());

  conn.send_frame(1, std::vector<std::uint8_t>(100, 0));  // not 64*64
  const auto reply = conn.read_message();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, MsgType::FrameDone);
  const auto done = decode_frame_done(reply->payload);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status, FrameStatus::BadFrame);

  // Session survives: a correct frame still completes.
  conn.send_frame(2, test_pixels(64, 64));
  const auto ok = conn.read_message();
  ASSERT_TRUE(ok.has_value());
  const auto done2 = decode_frame_done(ok->payload);
  ASSERT_TRUE(done2.has_value());
  EXPECT_EQ(done2->status, FrameStatus::Ok);
  server.stop();
}

TEST(ServeE2E, StreamIdMismatchIsAProtocolError) {
  Server server;
  server.start();
  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  const std::uint32_t stream = conn.hello(bulk_hello());

  const auto pixels = test_pixels(64, 64);
  conn.send_bytes(encode_message(MsgType::SubmitFrame, stream + 1, 1, pixels));
  const auto reply = conn.read_message();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, MsgType::Error);
  const auto err = decode_error(reply->payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::StreamMismatch);
  EXPECT_FALSE(conn.read_message().has_value());  // server closed on us
  server.stop();
}

TEST(ServeE2E, AbruptDisconnectOrphansInFlightFramesWithoutCrashing) {
  // One worker and big frames: completions land well after the client is
  // gone, exercising the orphan path (completion with no session).
  Server server({.port = 0, .workers = 1, .queue_capacity = 32, .limits = {}});
  server.start();
  {
    SyncClient conn({.host = "127.0.0.1", .port = server.port()});
    auto hello = bulk_hello(256);
    conn.hello(hello);
    const auto pixels = test_pixels(256, 256);
    for (std::uint64_t seq = 1; seq <= 4; ++seq) conn.send_frame(seq, pixels);
    // Destructor closes the socket with every frame still in flight.
  }
  const auto& ids = ServeMetricIds::get();
  EXPECT_TRUE(eventually([&] {
    const auto m = server.serve_metrics();
    return m.value(ids.frames_orphaned) + m.value(ids.frames_completed) == 4 &&
           server.active_sessions() == 0;
  }));
  EXPECT_GE(server.serve_metrics().value(ids.frames_orphaned), 1u);
  server.stop();
}

TEST(ServeE2E, StopWithConnectedClientsTearsDownCleanly) {
  Server server({.port = 0, .workers = 1, .queue_capacity = 8, .limits = {}});
  server.start();
  SyncClient conn({.host = "127.0.0.1", .port = server.port()});
  conn.hello(bulk_hello(128));
  const auto pixels = test_pixels(128, 128);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) conn.send_frame(seq, pixels);
  server.stop();  // in-flight frames drain into the stopped loop and are dropped
  // The client observes EOF/reset, not a hang.
  while (conn.read_message()) {
  }
  SUCCEED();
}

TEST(ServeE2E, LoadgenSoakScaledDown) {
  // Planner off: 12 concurrent pipelines deliberately exceed the default
  // XC7Z020 budget, and this test exercises QoS/backpressure, not admission.
  Server server({.port = 0,
                 .workers = 4,
                 .queue_capacity = 32,
                 .limits = {.device = std::nullopt}});
  server.start();

  client::LoadgenOptions options;
  options.port = server.port();
  options.streams = 12;
  options.frames_per_stream = 25;
  options.inflight_window = 4;
  options.realtime_fraction = 0.25;
  options.collect_server_stats = true;
  const auto report = client::run_loadgen(options);

  EXPECT_EQ(report.streams_completed, 12u);
  EXPECT_EQ(report.streams_failed, 0u);
  EXPECT_EQ(report.frames_sent, 12u * 25u);
  EXPECT_EQ(report.frames_ok + report.frames_rejected_busy + report.frames_rejected_shutdown +
                report.frames_bad,
            report.frames_sent);
  EXPECT_GT(report.frames_ok, 0u);
  EXPECT_GT(report.payload_bits, 0u);
  EXPECT_EQ(report.rtt_ns.count(), report.frames_sent);
  EXPECT_GT(report.rtt_ns.percentile(0.99), report.rtt_ns.percentile(0.50) * 0.99);
  EXPECT_NE(report.server_stats_json.find("serve.frames_completed"), std::string::npos);

  // Wire-visible bookkeeping must reconcile with the server's own counters.
  const auto& ids = ServeMetricIds::get();
  const auto metrics = server.serve_metrics();
  EXPECT_EQ(metrics.value(ids.frames_completed), report.frames_ok);
  EXPECT_EQ(metrics.value(ids.frames_rejected_busy), report.frames_rejected_busy);
  EXPECT_EQ(metrics.value(ids.sessions_opened), 12u);
  server.stop();
}

}  // namespace
}  // namespace swc::serve
